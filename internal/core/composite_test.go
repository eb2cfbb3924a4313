package core

import (
	"testing"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/event"
	"mrpc/internal/msg"
	"mrpc/internal/proc"
)

func TestCompositeAssembly(t *testing.T) {
	net := newMemNet()
	protos := []MicroProtocol{
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&ReliableCommunication{RetransTimeout: time.Hour},
		&BoundedTermination{TimeBound: time.Hour},
		&UniqueExecution{}, &SerialExecution{}, &FIFOOrder{},
		&InterferenceAvoidance{},
	}
	comp, err := NewComposite(Options{
		Site:   proc.NewSite(1),
		Bus:    event.New(clock.NewReal()),
		Net:    memEP{n: net},
		Server: echoServer(),
	}, protos...)
	if err != nil {
		t.Fatal(err)
	}
	defer comp.Close()

	names := comp.Protocols()
	want := []string{"RPC Main", "Synchronous Call", "Acceptance", "Collation",
		"Reliable Communication", "Bounded Termination", "Unique Execution",
		"Serial Execution", "FIFO Order", "Interference Avoidance"}
	if len(names) != len(want) {
		t.Fatalf("protocols = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("protocols[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	if comp.Framework() == nil {
		t.Fatal("accessors")
	}

	// Every remaining Name() for completeness.
	for _, p := range []MicroProtocol{&AsynchronousCall{}, &AtomicExecution{},
		&TotalOrder{}, &CausalOrder{}, &TerminateOrphan{}} {
		if p.Name() == "" {
			t.Fatal("empty protocol name")
		}
	}
}

func TestCompositeAttachFailureCloses(t *testing.T) {
	net := newMemNet()
	// Atomic Execution without deps fails to attach; NewComposite must
	// surface the error.
	_, err := NewComposite(Options{
		Site: proc.NewSite(1),
		Bus:  event.New(clock.NewReal()),
		Net:  memEP{n: net},
	}, &RPCMain{}, &AtomicExecution{})
	if err == nil {
		t.Fatal("NewComposite accepted a failing micro-protocol")
	}
}

func TestNewFrameworkRequiredOptions(t *testing.T) {
	if _, err := NewFramework(Options{}); err == nil {
		t.Fatal("NewFramework accepted empty options")
	}
}

func TestTakeServerRec(t *testing.T) {
	net := newMemNet()
	n := addNode(t, net, 1, nodeOpts{server: echoServer()}, &RPCMain{})
	key := msg.CallKey{Client: 9, ID: 9}
	if !n.fw.PutServerRec(&ServerRecord{Key: key}) {
		t.Fatal("PutServerRec rejected a fresh key")
	}
	if n.fw.PutServerRec(&ServerRecord{Key: key}) {
		t.Fatal("PutServerRec accepted a duplicate key")
	}
	if _, ok := n.fw.TakeServer(key); !ok {
		t.Fatal("TakeServer missed the stored record")
	}
	if n.fw.WithServer(key, func(*ServerRecord) {}) {
		t.Fatal("record survived TakeServer")
	}
}

package mrpc_test

// One benchmark per experiment of DESIGN.md §3. The per-figure *checks*
// live in experiments_test.go (correctness); these benchmarks measure the
// performance dimension of the same artifacts: per-call cost of every
// micro-protocol ladder step (E6/Figure 4's choices), acceptance and loss
// sweeps (E5/E9/E10), ordering (E7), the monolithic baseline (E8), and the
// configuration machinery itself (E4).

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mrpc"
	"mrpc/internal/baseline"
	"mrpc/internal/clock"
	"mrpc/internal/config"
	"mrpc/internal/experiments"
	"mrpc/internal/msg"
	"mrpc/internal/netsim"
	"mrpc/internal/p2p"
)

// benchSystem builds one server (echo) and one client with cfg over a
// network with the given params.
func benchSystem(b testing.TB, cfg mrpc.Config, servers int, p mrpc.NetParams) (*mrpc.System, *mrpc.Node, mrpc.Group, mrpc.OpID) {
	b.Helper()
	sys := mrpc.NewSystem(mrpc.SystemOptions{Net: p})
	b.Cleanup(sys.Stop)
	reg := mrpc.NewRegistry()
	echo := reg.Register("echo", func(_ *mrpc.Thread, args []byte) []byte { return args })
	newApp := func() mrpc.App { return reg }
	if cfg.Execution == config.ExecAtomic {
		// Atomic execution needs checkpointable state.
		newApp = func() mrpc.App { return &benchCkApp{} }
	}
	ids := make([]mrpc.ProcID, servers)
	for i := range ids {
		ids[i] = mrpc.ProcID(i + 1)
		if _, err := sys.AddServer(ids[i], cfg, newApp); err != nil {
			b.Fatal(err)
		}
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys, client, sys.Group(ids...), echo
}

func benchCalls(b *testing.B, client *mrpc.Node, op mrpc.OpID, group mrpc.Group, payload []byte) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, status, err := client.Call(op, payload, group)
		if err != nil || status != mrpc.StatusOK {
			b.Fatalf("call: %v %v", status, err)
		}
	}
}

// BenchmarkE1FailureSemantics measures an exactly-once call under the
// duplicate-inducing network of E1 (Figure 1's middle row, the common
// production point).
func BenchmarkE1FailureSemantics(b *testing.B) {
	cfg := mrpc.ExactlyOnce()
	cfg.RetransTimeout = 5 * time.Millisecond
	_, client, group, op := benchSystem(b, cfg, 1, mrpc.NetParams{
		Seed: 1, LossProb: 0.05, DupProb: 0.05,
	})
	benchCalls(b, client, op, group, []byte("x"))
}

// BenchmarkE4Enumeration measures enumerating and validating the full
// 198-configuration space (Figure 4's combinatorics).
func BenchmarkE4Enumeration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := len(config.Enumerate()); got != 198 {
			b.Fatalf("count = %d", got)
		}
	}
}

// BenchmarkE4GraphCheck measures the Figure 4 graph validation of one
// configuration's protocol selection.
func BenchmarkE4GraphCheck(b *testing.B) {
	sel := config.ReplicatedService().SelectedProtocols()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := config.CheckAgainstGraph(sel); len(v) != 0 {
			b.Fatal(v)
		}
	}
}

// BenchmarkE5ReadOne measures the §5 read-optimized configuration
// (acceptance ONE) against acceptance ALL on a 5-server group.
func BenchmarkE5ReadOne(b *testing.B) {
	for _, tc := range []struct {
		name string
		all  bool
	}{{"AcceptOne", false}, {"AcceptAll", true}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := config.ReadOne()
			cfg.TimeBound = 10 * time.Second
			cfg.RetransTimeout = 100 * time.Millisecond
			if tc.all {
				cfg.AcceptanceLimit = mrpc.AcceptAll
			}
			_, client, group, op := benchSystem(b, cfg, 5, mrpc.NetParams{})
			benchCalls(b, client, op, group, []byte("read"))
		})
	}
}

// BenchmarkE6Ablation measures the per-call cost of each micro-protocol
// ladder step over a perfect zero-delay network.
func BenchmarkE6Ablation(b *testing.B) {
	for _, c := range experiments.AblationCases() {
		b.Run(sanitize(c.Name), func(b *testing.B) {
			_, client, group, op := benchSystem(b, c.Cfg, 1, mrpc.NetParams{})
			benchCalls(b, client, op, group, nil)
		})
	}
}

// BenchmarkE7Ordering measures call latency under the three ordering
// configurations (3 servers, acceptance ALL so the ordering machinery is
// on the critical path).
func BenchmarkE7Ordering(b *testing.B) {
	for _, mode := range []config.OrderMode{config.OrderNone, config.OrderFIFO, config.OrderTotal, config.OrderCausal} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := mrpc.Config{
				Call:            config.CallSynchronous,
				Reliable:        true,
				RetransTimeout:  50 * time.Millisecond,
				Unique:          true,
				Execution:       config.ExecConcurrent,
				Ordering:        mode,
				Orphan:          config.OrphanIgnore,
				AcceptanceLimit: mrpc.AcceptAll,
			}
			_, client, group, op := benchSystem(b, cfg, 3, mrpc.NetParams{})
			benchCalls(b, client, op, group, []byte("x"))
		})
	}
}

// BenchmarkE8Monolithic compares the composite protocol against the
// hand-fused monolithic baseline with identical semantics.
func BenchmarkE8Monolithic(b *testing.B) {
	b.Run("Monolithic", func(b *testing.B) {
		clk := clock.NewReal()
		net := netsim.New(clk, netsim.Params{})
		b.Cleanup(net.Stop)
		if _, err := baseline.NewServer(net, 1, func(_ msg.OpID, args []byte) []byte {
			return args
		}); err != nil {
			b.Fatal(err)
		}
		client, err := baseline.NewClient(net, clk, 100, 50*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(client.Close)
		group := msg.NewGroup(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			client.Call(1, nil, group, 1)
		}
	})
	b.Run("Composite", func(b *testing.B) {
		cfg := config.ExactlyOncePreset()
		cfg.RetransTimeout = 50 * time.Millisecond
		_, client, group, op := benchSystem(b, cfg, 1, mrpc.NetParams{})
		benchCalls(b, client, op, group, nil)
	})
}

// BenchmarkE9Loss measures exactly-once call latency as the loss rate
// rises (retransmission on the critical path).
func BenchmarkE9Loss(b *testing.B) {
	for _, loss := range []float64{0, 0.1, 0.3} {
		b.Run(fmt.Sprintf("loss%.0f%%", loss*100), func(b *testing.B) {
			cfg := mrpc.ExactlyOnce()
			cfg.RetransTimeout = 2 * time.Millisecond
			_, client, group, op := benchSystem(b, cfg, 1, mrpc.NetParams{
				Seed: 9, LossProb: loss,
			})
			benchCalls(b, client, op, group, []byte("x"))
		})
	}
}

// BenchmarkE10Acceptance measures k-of-5 acceptance on a uniform group
// (the latency shape under heterogeneous delays is E10 in mrpcbench; here
// the protocol-side cost of waiting for more repliers is visible).
func BenchmarkE10Acceptance(b *testing.B) {
	for _, k := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			cfg := mrpc.ExactlyOnce()
			cfg.RetransTimeout = 50 * time.Millisecond
			cfg.AcceptanceLimit = k
			_, client, group, op := benchSystem(b, cfg, 5, mrpc.NetParams{})
			benchCalls(b, client, op, group, nil)
		})
	}
}

// BenchmarkE11Orphan measures the overhead the orphan-handling
// micro-protocols add to the no-failure fast path.
func BenchmarkE11Orphan(b *testing.B) {
	for _, mode := range []config.OrphanMode{config.OrphanIgnore, config.OrphanAvoidInterference, config.OrphanTerminate} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := mrpc.AtLeastOnce()
			cfg.RetransTimeout = 50 * time.Millisecond
			cfg.Orphan = mode
			_, client, group, op := benchSystem(b, cfg, 1, mrpc.NetParams{})
			benchCalls(b, client, op, group, nil)
		})
	}
}

// BenchmarkE12Bounded measures the fast path with Bounded Termination
// armed (per-call timer management overhead).
func BenchmarkE12Bounded(b *testing.B) {
	for _, bounded := range []bool{false, true} {
		name := "unbounded"
		if bounded {
			name = "bounded"
		}
		b.Run(name, func(b *testing.B) {
			cfg := mrpc.AtLeastOnce()
			cfg.RetransTimeout = 50 * time.Millisecond
			cfg.Bounded = bounded
			cfg.TimeBound = 10 * time.Second
			_, client, group, op := benchSystem(b, cfg, 1, mrpc.NetParams{})
			benchCalls(b, client, op, group, nil)
		})
	}
}

// BenchmarkE14PointToPoint measures the compact §4.1 point-to-point
// specialization against the composite (see internal/experiments/e14.go
// for the experiment version).
func BenchmarkE14PointToPoint(b *testing.B) {
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.Params{})
	b.Cleanup(net.Stop)
	opts := p2p.Options{Reliable: true, Unique: true, RetransTimeout: 50 * time.Millisecond}
	srv, err := p2p.NewServer(net, 1, opts, func(_ *mrpc.Thread, _ msg.OpID, args []byte) []byte {
		return args
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	client, err := p2p.NewClient(net, clk, 100, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(client.Close)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, status := client.Call(1, 1, nil); status != mrpc.StatusOK {
			b.Fatal(status)
		}
	}
}

// BenchmarkTableContention measures call throughput as concurrent caller
// goroutines contend for the framework's call tables: every call inserts and
// removes a pRPC record at the client and an sRPC record at the server, so
// with many callers the table layer itself is the shared hot path. The
// caller counts sweep past typical core counts to expose lock contention.
func BenchmarkTableContention(b *testing.B) {
	for _, callers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("callers%d", callers), func(b *testing.B) {
			cfg := mrpc.ExactlyOnce()
			cfg.RetransTimeout = 50 * time.Millisecond
			_, client, group, op := benchSystem(b, cfg, 1, mrpc.NetParams{})
			payload := []byte("x")
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / callers
			if per == 0 {
				per = 1
			}
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						_, status, err := client.Call(op, payload, group)
						if err != nil || status != mrpc.StatusOK {
							b.Errorf("call: %v %v", status, err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkWireCodec measures the message codec (every on-wire byte of the
// system goes through it when EncodeOnWire is set).
func BenchmarkWireCodec(b *testing.B) {
	m := &msg.NetMsg{
		Type: msg.OpCall, ID: 1 << 33, Client: 100, Op: 7,
		Args: make([]byte, 256), Server: msg.NewGroup(1, 2, 3), Sender: 100, Inc: 2,
	}
	buf := m.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := m.Encode()
		if _, err := msg.Decode(enc); err != nil {
			b.Fatal(err)
		}
		_ = buf
	}
}

// benchCkApp is a checkpointable echo app for atomic-execution benchmarks.
type benchCkApp struct{ n int64 }

func (a *benchCkApp) Pop(_ *mrpc.Thread, _ mrpc.OpID, args []byte) []byte {
	a.n++
	return args
}

func (a *benchCkApp) Snapshot() []byte {
	return mrpc.NewWriter(8).PutInt64(a.n).Bytes()
}

func (a *benchCkApp) Restore(data []byte) error {
	a.n = mrpc.NewReader(data).Int64()
	return nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '(', ')', '+', '/':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

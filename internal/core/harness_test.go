package core

import (
	"sync"
	"testing"

	"mrpc/internal/clock"
	"mrpc/internal/event"
	"mrpc/internal/member"
	"mrpc/internal/msg"
	"mrpc/internal/proc"
	"mrpc/internal/trace"
)

// memNet is a deterministic in-memory transport for micro-protocol tests:
// by default it delivers synchronously on the sender's goroutine (so a test
// observes a complete causal chain from one call), and can be switched to
// asynchronous delivery for concurrency tests. A hook may inspect and
// suppress individual deliveries.
type memNet struct {
	mu       sync.Mutex
	handlers map[msg.ProcID]func(*msg.NetMsg)
	hook     func(to msg.ProcID, m *msg.NetMsg) bool // true = drop
	sent     []sentRec
	unlogged bool // sends are delivered but not logged
	async    bool
	wg       sync.WaitGroup
}

type sentRec struct {
	From, To msg.ProcID
	M        *msg.NetMsg
}

func newMemNet() *memNet {
	return &memNet{handlers: make(map[msg.ProcID]func(*msg.NetMsg))}
}

func (n *memNet) setHook(h func(to msg.ProcID, m *msg.NetMsg) bool) {
	n.mu.Lock()
	n.hook = h
	n.mu.Unlock()
}

// setLogging turns the send log on or off; turning it on empties it.
func (n *memNet) setLogging(on bool) {
	n.mu.Lock()
	n.unlogged = !on
	if on {
		n.sent = nil
	}
	n.mu.Unlock()
}

// sentLog returns a snapshot of every send attempted (including dropped).
func (n *memNet) sentLog() []sentRec {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]sentRec(nil), n.sent...)
}

// countSent counts sends of the given type to the given destination
// (to == 0 matches any destination).
func (n *memNet) countSent(typ msg.NetOp, to msg.ProcID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	count := 0
	for _, s := range n.sent {
		if s.M.Type == typ && (to == 0 || s.To == to) {
			count++
		}
	}
	return count
}

func (n *memNet) deliver(from, to msg.ProcID, m *msg.NetMsg) {
	c := m.Clone()
	n.mu.Lock()
	if !n.unlogged {
		n.sent = append(n.sent, sentRec{From: from, To: to, M: c})
	}
	hook := n.hook
	h := n.handlers[to]
	async := n.async
	n.mu.Unlock()

	if hook != nil && hook(to, c) {
		return
	}
	if h == nil {
		return
	}
	if async {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			h(c.Clone())
		}()
		return
	}
	h(c.Clone())
}

// wait blocks until all asynchronous deliveries have been handled.
func (n *memNet) wait() { n.wg.Wait() }

type memEP struct {
	n    *memNet
	self msg.ProcID
}

var _ Transport = memEP{}

func (e memEP) Push(to msg.ProcID, m *msg.NetMsg) { e.n.deliver(e.self, to, m) }

func (e memEP) Multicast(group msg.Group, m *msg.NetMsg) {
	for _, to := range group {
		e.n.deliver(e.self, to, m)
	}
}

// testNode bundles one framework with its plumbing.
type testNode struct {
	fw   *Framework
	site *proc.Site
	bus  *event.Bus
}

type nodeOpts struct {
	server     Server
	membership member.Service
	clk        clock.Clock
	trace      trace.Sink
	site       *proc.Site // nil: a fresh site (incarnation 1)
}

// addNode attaches a framework for process id to the net with the given
// micro-protocols.
func addNode(t *testing.T, net *memNet, id msg.ProcID, opts nodeOpts, protos ...MicroProtocol) *testNode {
	t.Helper()
	if opts.clk == nil {
		opts.clk = clock.NewReal()
	}
	site := opts.site
	if site == nil {
		site = proc.NewSite(id)
	}
	bus := event.New(opts.clk)
	fw, err := NewFramework(Options{
		Site:       site,
		Bus:        bus,
		Net:        memEP{n: net, self: id},
		Server:     opts.server,
		Membership: opts.membership,
		Trace:      opts.trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range protos {
		if err := p.Attach(fw); err != nil {
			t.Fatalf("attach %s: %v", p.Name(), err)
		}
	}
	net.mu.Lock()
	net.handlers[id] = fw.HandleNet
	net.mu.Unlock()
	t.Cleanup(fw.Close)
	return &testNode{fw: fw, site: site, bus: bus}
}

// echoServer returns its arguments with a prefix.
func echoServer() Server {
	return ServerFunc(func(_ *proc.Thread, _ msg.OpID, args []byte) []byte {
		return append([]byte("r:"), args...)
	})
}

// recordingServer logs executed payloads.
type recordingServer struct {
	mu  sync.Mutex
	log []string
}

func (r *recordingServer) Pop(_ *proc.Thread, _ msg.OpID, args []byte) []byte {
	r.mu.Lock()
	r.log = append(r.log, string(args))
	r.mu.Unlock()
	return args
}

func (r *recordingServer) executed() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.log...)
}

// gateServer blocks each execution until released, for concurrency and
// orphan tests. It honours cooperative kill.
type gateServer struct {
	entered chan string
	release chan struct{}

	mu     sync.Mutex
	done   []string
	killed []string
}

func newGateServer() *gateServer {
	return &gateServer{
		entered: make(chan string, 64),
		release: make(chan struct{}, 64),
	}
}

func (g *gateServer) Pop(th *proc.Thread, _ msg.OpID, args []byte) []byte {
	tag := string(args)
	g.entered <- tag
	if th != nil {
		select {
		case <-g.release:
		case <-th.Killed():
			g.mu.Lock()
			g.killed = append(g.killed, tag)
			g.mu.Unlock()
			return nil
		}
	} else {
		<-g.release
	}
	g.mu.Lock()
	g.done = append(g.done, tag)
	g.mu.Unlock()
	return args
}

func (g *gateServer) completed() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.done...)
}

func (g *gateServer) killedTags() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.killed...)
}

// minimalClient returns the client-side micro-protocols of the minimal
// functional set with acceptance k.
func minimalClient(k int) []MicroProtocol {
	return []MicroProtocol{
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: k}, &Collation{},
	}
}

// callMsg builds a Call message for direct injection at a server.
func callMsg(client msg.ProcID, id msg.CallID, inc msg.Incarnation, group msg.Group, payload string) *msg.NetMsg {
	return &msg.NetMsg{
		Type:   msg.OpCall,
		ID:     id,
		Client: client,
		Op:     1,
		Args:   []byte(payload),
		Server: group,
		Sender: client,
		Inc:    inc,
	}
}

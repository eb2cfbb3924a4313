package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"mrpc"
	"mrpc/internal/clock"
	"mrpc/internal/msg"
	"mrpc/internal/nettcp"
	"mrpc/internal/transport"
)

// instance is one built system with its closed-loop callers.
type instance struct {
	sys     *mrpc.System
	net     transport.Transport // as the system sees it (decorated when traced)
	clients []*mrpc.Node
	// callers each run one round of their operations per call.
	callers []func(*recorder)
	// check runs the post-run correctness checks; the system is quiescent.
	check func(v *verifier)
	tr    *tracer // nil when untraced
}

// egress is the client endpoints' frames offered to other processes.
func (in *instance) egress() int64 {
	var n int64
	for _, c := range in.clients {
		n += c.Link().Stats().Egress
	}
	return n
}

// traceNodes installs the tracer's bus observer on every node.
func (in *instance) traceNodes(ids ...mrpc.ProcID) {
	if in.tr == nil {
		return
	}
	for _, id := range ids {
		if n, ok := in.sys.Node(id); ok {
			n.Composite().Framework().Bus().SetObserver(in.tr.observer())
		}
	}
}

// call runs a synchronous call inside a client span.
func (in *instance) call(n *mrpc.Node, op mrpc.OpID, args []byte, g mrpc.Group) ([]byte, bool) {
	s := in.tr.begin()
	reply, st, err := n.Call(op, args, g)
	in.tr.end(idCall, s, clientKey(n))
	return reply, err == nil && st == mrpc.StatusOK
}

// workload builds one system shape for a seed.
type workload struct {
	name string
	// warm is the number of rounds each caller runs while setting up.
	warm  int
	build func(seed int64, tr *tracer, v *verifier) (*instance, error)
}

var workloads = []workload{
	{
		name:  "sim_kv_g3",
		warm:  1000,
		build: buildSimKV,
	},
	{
		name:  "tcp_pipe_g3",
		warm:  100,
		build: buildTCPPipe,
	},
	{
		name:  "sim_tree_lossy_g16",
		warm:  150,
		build: buildSimTree,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// rng returns the seeded generator of one input stream.
func rng(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

func newSystem(net transport.Transport, tr *tracer) *mrpc.System {
	opts := mrpc.SystemOptions{Transport: net}
	if tr != nil {
		opts.Trace = tr
	}
	return mrpc.NewSystem(opts)
}

// --- sim_kv_g3 ---

const (
	opPut mrpc.OpID = 1
	opGet mrpc.OpID = 2
	// kvKeys is the size of the key space the generator draws from.
	kvKeys = 1024
)

// kvReplica is one replica's state machine. It keeps, per key, the
// version count and the latest value, plus a digest of the order in which
// it applied puts.
type kvReplica struct {
	mu    sync.Mutex
	ver   [kvKeys]uint64
	val   [kvKeys][kvValLen]byte
	order uint64
}

func (r *kvReplica) Pop(_ *mrpc.Thread, op mrpc.OpID, args []byte) []byte {
	rd := mrpc.NewReader(args)
	key := rd.Uint32() % kvKeys
	switch op {
	case opPut:
		val := rd.Bytes()
		r.mu.Lock()
		r.ver[key]++
		v := r.ver[key]
		copy(r.val[key][:], val)
		r.order = orderStep(r.order, key, v)
		r.mu.Unlock()
		return mrpc.NewWriter(8).PutUint64(v).Bytes()
	case opGet:
		r.mu.Lock()
		v, val := r.ver[key], r.val[key]
		r.mu.Unlock()
		return mrpc.NewWriter(12 + kvValLen).PutUint64(v).PutBytes(val[:]).Bytes()
	}
	return nil
}

// freshest keeps the reply with the highest version: the read collation.
func freshest(accum, reply []byte) []byte {
	if len(accum) == 0 || mrpc.NewReader(reply).Uint64() >= mrpc.NewReader(accum).Uint64() {
		return reply
	}
	return accum
}

// buildSimKV: 3 replicas under ReplicatedService on a perfect zero-delay
// netsim without wire encoding; one writer putting under ReplicatedService
// and one reader getting under ExactlyOnce with acceptance 2 and
// freshest-version collation.
func buildSimKV(seed int64, tr *tracer, v *verifier) (*instance, error) {
	net := tr.wrap(mrpc.NewSimNet(clock.NewReal(), mrpc.NetParams{Seed: seed}), false)
	sys := newSystem(net, tr)
	in := &instance{sys: sys, net: net, tr: tr}
	group := sys.Group(1, 2, 3)
	writeCfg := mrpc.ReplicatedService()
	readCfg := mrpc.ExactlyOnce()
	readCfg.AcceptanceLimit = 2
	readCfg.Collate = freshest

	replicas := make([]*kvReplica, len(group))
	for i, id := range group {
		r := &kvReplica{order: orderSeed}
		replicas[i] = r
		if _, err := sys.AddServer(id, writeCfg, func() mrpc.App { return tr.wrapApp(r) }); err != nil {
			sys.Stop()
			return nil, err
		}
	}
	writer, err := sys.AddClient(100, writeCfg)
	if err != nil {
		sys.Stop()
		return nil, err
	}
	reader, err := sys.AddClient(101, readCfg)
	if err != nil {
		sys.Stop()
		return nil, err
	}
	in.clients = []*mrpc.Node{writer, reader}
	in.traceNodes(1, 2, 3, 100, 101)

	// issued[k] counts puts to key k handed to the program, completed[k]
	// those that returned; the writer alone updates both.
	var issued, completed [kvKeys]atomic.Uint64
	wr, rr := rng(seed, 1), rng(seed, 2)
	put := func(rec *recorder) {
		key := uint32(wr.IntN(kvKeys))
		k := issued[key].Add(1)
		val := kvValue(seed, key, k)
		s := tr.begin()
		args := mrpc.NewWriter(8 + kvValLen).PutUint32(key).PutBytes(val[:]).Bytes()
		tr.end(idStub, s, noKey)
		start := time.Now()
		reply, ok := in.call(writer, opPut, args, group)
		rec.done(start, ok)
		if !ok {
			return
		}
		s = tr.begin()
		ver := mrpc.NewReader(reply).Uint64()
		tr.end(idStub, s, noKey)
		v.add(checkPutVersion(key, k, ver))
		completed[key].Add(1)
	}
	get := func(rec *recorder) {
		key := uint32(rr.IntN(kvKeys))
		lo := completed[key].Load()
		s := tr.begin()
		args := mrpc.NewWriter(4).PutUint32(key).Bytes()
		tr.end(idStub, s, noKey)
		start := time.Now()
		reply, ok := in.call(reader, opGet, args, group)
		rec.done(start, ok)
		if !ok {
			return
		}
		hi := issued[key].Load()
		s = tr.begin()
		rd := mrpc.NewReader(reply)
		ver, val := rd.Uint64(), rd.Bytes()
		tr.end(idStub, s, noKey)
		v.add(checkGetVersion(key, lo, hi, ver))
		v.add(checkGetValue(seed, key, ver, val))
	}
	in.callers = []func(*recorder){put, get}
	in.check = func(v *verifier) {
		want := make([]uint64, kvKeys)
		for k := range want {
			want[k] = issued[k].Load()
		}
		held := make([][]uint64, len(replicas))
		digests := make([]uint64, len(replicas))
		for i, r := range replicas {
			r.mu.Lock()
			held[i] = append([]uint64(nil), r.ver[:]...)
			digests[i] = r.order
			r.mu.Unlock()
		}
		v.add(checkReplicaCounts(want, held))
		v.add(checkReplicaOrder(digests))
	}
	return in, nil
}

// --- tcp_pipe_g3 and sim_tree_lossy_g16 ---

const opDigest mrpc.OpID = 1

// digestApp replies to a payload with its digest and records, in constant
// memory, which calls it executed. A payload starts with its caller and
// sequence number.
type digestApp struct{ execs callSet }

func (a *digestApp) Pop(_ *mrpc.Thread, _ mrpc.OpID, args []byte) []byte {
	rd := mrpc.NewReader(args)
	caller, seq := rd.Uint32(), rd.Uint64()
	a.execs.add(caller, seq)
	return mrpc.NewWriter(4).PutUint32(digest(args)).Bytes()
}

// digestGroup is a group of digest members with the calls issued to it.
type digestGroup struct {
	apps   []*digestApp
	issued []*callSet // one per caller
}

func (dg *digestGroup) addServers(sys *mrpc.System, cfg mrpc.Config, tr *tracer, ids mrpc.Group) error {
	for _, id := range ids {
		a := &digestApp{}
		dg.apps = append(dg.apps, a)
		if _, err := sys.AddServer(id, cfg, func() mrpc.App { return tr.wrapApp(a) }); err != nil {
			return err
		}
	}
	return nil
}

// check: every member executed each issued call exactly once.
func (dg *digestGroup) check(v *verifier) {
	var all callSet
	for _, s := range dg.issued {
		all.merge(s)
	}
	members := make([]*callSet, len(dg.apps))
	for i, a := range dg.apps {
		members[i] = &a.execs
	}
	v.add(checkExactlyOnce(&all, members))
}

// payloads returns a seeded pool of payload bodies: perClass bodies of
// each size 64 << [0, classes) bytes, in seeded order. Callers cycle through
// the pool, so the size mix is the same whatever the seed.
func payloads(r *rand.Rand, perClass, classes int) [][]byte {
	pool := make([][]byte, 0, perClass*classes)
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			b := make([]byte, 64<<c)
			for j := range b {
				b[j] = byte(r.Uint32())
			}
			pool = append(pool, b)
		}
	}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// marshalPayload builds a call's payload: caller, sequence number, body.
func marshalPayload(tr *tracer, caller uint32, seq uint64, body []byte) []byte {
	s := tr.begin()
	args := mrpc.NewWriter(16 + len(body)).PutUint32(caller).PutUint64(seq).PutBytes(body).Bytes()
	tr.end(idStub, s, noKey)
	return args
}

// checkReply parses a digest reply and checks it against the payload.
func checkReply(tr *tracer, v *verifier, args, reply []byte) {
	s := tr.begin()
	rd := mrpc.NewReader(reply)
	got := rd.Uint32()
	tr.end(idStub, s, noKey)
	if rd.Err() != nil || rd.Remaining() != 0 {
		v.add(fmt.Errorf("malformed %d-byte digest reply", len(reply)))
		return
	}
	v.add(checkDigest(args, got))
}

// pipeWindow is the number of no-wait calls each tcp_pipe_g3 caller keeps
// in flight: issued inside one pipeline section, then collected.
const pipeWindow = 16

// buildTCPPipe: one client node and 3 servers over loopback nettcp,
// asynchronous ExactlyOnce with acceptance ALL and no ordering; two callers
// on the client node.
func buildTCPPipe(seed int64, tr *tracer, v *verifier) (*instance, error) {
	net := tr.wrap(nettcp.New(clock.NewReal(), nettcp.Options{}), true)
	sys := newSystem(net, tr)
	in := &instance{sys: sys, net: net, tr: tr}
	group := sys.Group(1, 2, 3)
	cfg := mrpc.ExactlyOnce()
	cfg.Call = mrpc.CallAsynchronous
	cfg.AcceptanceLimit = mrpc.AcceptAll

	dg := &digestGroup{}
	if err := dg.addServers(sys, cfg, tr, group); err != nil {
		sys.Stop()
		return nil, err
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		sys.Stop()
		return nil, err
	}
	in.clients = []*mrpc.Node{client}
	in.traceNodes(1, 2, 3, 100)

	for c := uint32(1); c <= 2; c++ {
		r := rng(seed, uint64(10+c))
		pool := payloads(r, 16, 7)
		issued := &callSet{}
		dg.issued = append(dg.issued, issued)
		var seq uint64
		in.callers = append(in.callers, func(rec *recorder) {
			var (
				ids      [pipeWindow]mrpc.CallID
				args     [pipeWindow][]byte
				starts   [pipeWindow]time.Time
				issuedOK [pipeWindow]bool
			)
			client.PipelineBegin()
			for i := range ids {
				seq++
				args[i] = marshalPayload(tr, c, seq, pool[seq%uint64(len(pool))])
				starts[i] = time.Now()
				s := tr.begin()
				id, err := client.CallAsync(opDigest, args[i], group)
				tr.end(idCall, s, msg.CallKey{Client: client.ID(), ID: id})
				if err == nil {
					issued.add(c, seq)
				}
				ids[i], issuedOK[i] = id, err == nil
			}
			s := tr.begin()
			client.PipelineEnd()
			tr.end(idCall, s, noKey)
			for i, id := range ids {
				if !issuedOK[i] {
					rec.done(starts[i], false)
					continue
				}
				s := tr.begin()
				reply, st, err := client.Collect(id)
				tr.end(idCall, s, msg.CallKey{Client: client.ID(), ID: id})
				ok := err == nil && st == mrpc.StatusOK
				rec.done(starts[i], ok)
				if ok {
					checkReply(tr, v, args[i], reply)
				}
			}
		})
	}
	in.check = dg.check
	return in, nil
}

// treeRetrans is the retransmission period on the lossy tree: short, so a
// lost frame costs a few milliseconds, not the default period.
const treeRetrans = 2 * time.Millisecond

// treeLoss is the per-delivery loss on the lossy tree. About 6% of calls
// then wait for one retransmission round and about 0.15% for two, so the
// p99 lies inside the one-round plateau. At 1% loss the share of calls
// needing two rounds is itself near 1%, the p99 sits on the step between
// the plateaus (p98 2.9ms, p99 4.4ms) and it moved from 3.5ms to 5ms
// between runs of one build.
const treeLoss = 0.003

// buildSimTree: 16 members with tree(3) dissemination on netsim with the
// wire codec on and a seeded per-delivery loss; synchronous ExactlyOnce
// with acceptance ALL; one caller.
func buildSimTree(seed int64, tr *tracer, v *verifier) (*instance, error) {
	p := mrpc.NetParams{Seed: seed, LossProb: treeLoss, EncodeOnWire: true}
	net := tr.wrap(mrpc.NewSimNet(clock.NewReal(), p), true)
	sys := newSystem(net, tr)
	in := &instance{sys: sys, net: net, tr: tr}
	ids := make([]mrpc.ProcID, 16)
	for i := range ids {
		ids[i] = mrpc.ProcID(i + 1)
	}
	group := sys.Group(ids...)
	cfg := mrpc.ExactlyOnce()
	cfg.AcceptanceLimit = mrpc.AcceptAll
	cfg.RetransTimeout = treeRetrans
	cfg.Dissemination = mrpc.DissTree
	cfg.TreeFanout = 3

	dg := &digestGroup{}
	if err := dg.addServers(sys, cfg, tr, group); err != nil {
		sys.Stop()
		return nil, err
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		sys.Stop()
		return nil, err
	}
	in.clients = []*mrpc.Node{client}
	in.traceNodes(append(ids, 100)...)

	r := rng(seed, 20)
	pool := payloads(r, 16, 4)
	issued := &callSet{}
	dg.issued = []*callSet{issued}
	var seq uint64
	in.callers = []func(*recorder){func(rec *recorder) {
		seq++
		args := marshalPayload(tr, 1, seq, pool[seq%uint64(len(pool))])
		issued.add(1, seq)
		start := time.Now()
		reply, ok := in.call(client, opDigest, args, group)
		rec.done(start, ok)
		if ok {
			checkReply(tr, v, args, reply)
		}
	}}
	in.check = func(v *verifier) {
		dg.check(v)
		v.add(checkDropped(sys.Net().Stats().Dropped))
	}
	return in, nil
}

package core

import (
	"sync"

	"mrpc/internal/msg"
)

// This file is the call-table layer: the pRPC (client-side) and sRPC
// (server-side) tables of the paper, held as power-of-two sharded maps with
// one mutex per shard and accessed exclusively through the scoped API on
// Framework (WithClient/WithServer, EachClient/EachServer, ClientTx/
// ServerTx, and the insert/remove helpers).
//
// The paper guards each table with a single process-wide mutex
// (pRPC_mutex/sRPC_mutex) and leaves the discipline to "callers must hold
// the mutex" comments. Sharding removes the process-wide serialization on
// the hot path — concurrent calls with different ids proceed on different
// shards — and the scoped API removes the held-lock-by-convention bug
// class: a lock can no longer leak out of the function that took it.
//
// Rules (see DESIGN.md §4):
//
//   - A scoped callback runs under its record's shard mutex. It must not
//     call back into the table layer and must not trigger events; it may
//     read and write the record's mutable fields.
//   - Record fields split into immutable-after-insert (ClientRecord: ID,
//     Op, CallArgs, Server, Sem, VC, the Pending slice structure;
//     ServerRecord: Key, Op, Client, Server, Inc, Thread) and mutable
//     (ClientRecord: Args, NRes, Status, Pending entries;
//     ServerRecord: Args, hold, executing). Immutable fields may be read
//     without the shard lock; mutable fields only inside a scoped callback
//     — or after Take*, which transfers ownership of the record to the
//     caller (and, with it, the right to scrub and repool the record).
//   - Each* iterates shard by shard, locking one shard at a time: cheap,
//     but records inserted or removed concurrently in shards not yet
//     visited may or may not be seen. Handlers that need a consistent
//     cross-record view (Acceptance's failure sweep, Terminate Orphan's
//     kill sweep, Close's abort sweep) use ClientTx/ServerTx, which hold
//     every shard for the duration of the callback.

// tableShardBits sets the shard count. 16 shards keeps the per-framework
// footprint trivial (two small maps per shard) while exceeding the core
// counts this runtime targets; contention halves with every extra bit if a
// profile ever demands more.
const (
	tableShardBits = 4
	tableShards    = 1 << tableShardBits
)

// shardIndex distributes hash keys over the shards (Fibonacci hashing: the
// multiplier is 2^64/phi, and the top bits of the product are well mixed
// even for the dense sequential call ids the D9 scheme produces).
func shardIndex(h uint64) int {
	return int((h * 0x9E3779B97F4A7C15) >> (64 - tableShardBits))
}

func clientShardOf(id msg.CallID) int {
	return shardIndex(uint64(id))
}

func serverShardOf(key msg.CallKey) int {
	// Incarnation occupies the CallID's upper 32 bits (D9), so folding the
	// client id into them keeps distinct clients' dense sequences apart.
	return shardIndex(uint64(key.ID) ^ uint64(uint32(key.Client))<<32)
}

// --- client table (pRPC) --------------------------------------------------

type clientShard struct {
	mu   sync.Mutex
	recs map[msg.CallID]*ClientRecord
}

type clientTable struct {
	shards [tableShards]clientShard
}

func (t *clientTable) init() {
	for i := range t.shards {
		t.shards[i].recs = make(map[msg.CallID]*ClientRecord)
	}
}

func (t *clientTable) with(id msg.CallID, f func(*ClientRecord)) bool {
	s := &t.shards[clientShardOf(id)]
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recs[id]
	if ok {
		f(r)
	}
	return ok
}

func (t *clientTable) put(rec *ClientRecord) {
	s := &t.shards[clientShardOf(rec.ID)]
	s.mu.Lock()
	s.recs[rec.ID] = rec
	s.mu.Unlock()
}

func (t *clientTable) take(id msg.CallID) (*ClientRecord, bool) {
	s := &t.shards[clientShardOf(id)]
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recs[id]
	if ok {
		delete(s.recs, id)
	}
	return r, ok
}

func (t *clientTable) each(f func(*ClientRecord)) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, r := range s.recs {
			f(r)
		}
		s.mu.Unlock()
	}
}

func (t *clientTable) len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.recs)
		s.mu.Unlock()
	}
	return n
}

func (t *clientTable) lockAll() {
	for i := range t.shards {
		t.shards[i].mu.Lock()
	}
}

func (t *clientTable) unlockAll() {
	for i := tableShards - 1; i >= 0; i-- {
		t.shards[i].mu.Unlock()
	}
}

// --- server table (sRPC) --------------------------------------------------

type serverShard struct {
	mu   sync.Mutex
	recs map[msg.CallKey]*ServerRecord
}

type serverTable struct {
	shards [tableShards]serverShard
}

func (t *serverTable) init() {
	for i := range t.shards {
		t.shards[i].recs = make(map[msg.CallKey]*ServerRecord)
	}
}

func (t *serverTable) with(key msg.CallKey, f func(*ServerRecord)) bool {
	s := &t.shards[serverShardOf(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recs[key]
	if ok {
		f(r)
	}
	return ok
}

// putIfAbsent inserts rec unless a record with its key is already held, and
// reports whether the insert happened (false = duplicate).
func (t *serverTable) putIfAbsent(rec *ServerRecord) bool {
	s := &t.shards[serverShardOf(rec.Key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.recs[rec.Key]; dup {
		return false
	}
	s.recs[rec.Key] = rec
	return true
}

func (t *serverTable) take(key msg.CallKey) (*ServerRecord, bool) {
	s := &t.shards[serverShardOf(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recs[key]
	if ok {
		delete(s.recs, key)
	}
	return r, ok
}

func (t *serverTable) each(f func(*ServerRecord)) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, r := range s.recs {
			f(r)
		}
		s.mu.Unlock()
	}
}

func (t *serverTable) len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.recs)
		s.mu.Unlock()
	}
	return n
}

func (t *serverTable) lockAll() {
	for i := range t.shards {
		t.shards[i].mu.Lock()
	}
}

func (t *serverTable) unlockAll() {
	for i := tableShards - 1; i >= 0; i-- {
		t.shards[i].mu.Unlock()
	}
}

// --- scoped access API ----------------------------------------------------

// WithClient runs f with the pending call record for id under the record's
// shard mutex and reports whether the record was present. f must not call
// back into the table layer and must not trigger events.
func (fw *Framework) WithClient(id msg.CallID, f func(*ClientRecord)) bool {
	return fw.clients.with(id, f)
}

// WithServer runs f with the held call record for key under the record's
// shard mutex and reports whether the record was present. f must not call
// back into the table layer and must not trigger events.
func (fw *Framework) WithServer(key msg.CallKey, f func(*ServerRecord)) bool {
	return fw.servers.with(key, f)
}

// EachClient runs f for every pending call record, locking one shard at a
// time. Records inserted or removed concurrently may or may not be visited;
// use ClientTx for a consistent cross-record view.
func (fw *Framework) EachClient(f func(*ClientRecord)) {
	fw.clients.each(f)
}

// EachServer runs f for every held call record, locking one shard at a
// time. Records inserted or removed concurrently may or may not be visited;
// use ServerTx for a consistent cross-record view.
func (fw *Framework) EachServer(f func(*ServerRecord)) {
	fw.servers.each(f)
}

// ClientTx is a multi-record view of the pRPC table with every shard locked:
// no call can be inserted, removed, or mutated elsewhere while it is open.
type ClientTx struct {
	t *clientTable
}

// Get returns the pending call record for id.
func (tx ClientTx) Get(id msg.CallID) (*ClientRecord, bool) {
	r, ok := tx.t.shards[clientShardOf(id)].recs[id]
	return r, ok
}

// Each runs f for every pending call record.
func (tx ClientTx) Each(f func(*ClientRecord)) {
	for i := range tx.t.shards {
		for _, r := range tx.t.shards[i].recs {
			f(r)
		}
	}
}

// ClientTx runs f with every client shard locked, for handlers that need
// cross-record atomicity (Acceptance's failure sweep, Close's abort sweep).
// f must not call back into the table layer outside tx, must not trigger
// events, and must not block; Tx spans are the one place the whole table is
// serialized, so keep them short.
func (fw *Framework) ClientTx(f func(tx ClientTx)) {
	fw.clients.lockAll()
	defer fw.clients.unlockAll()
	f(ClientTx{t: &fw.clients})
}

// ServerTx is a multi-record view of the sRPC table with every shard locked.
type ServerTx struct {
	t *serverTable
}

// Get returns the held call record for key.
func (tx ServerTx) Get(key msg.CallKey) (*ServerRecord, bool) {
	r, ok := tx.t.shards[serverShardOf(key)].recs[key]
	return r, ok
}

// Each runs f for every held call record.
func (tx ServerTx) Each(f func(*ServerRecord)) {
	for i := range tx.t.shards {
		for _, r := range tx.t.shards[i].recs {
			f(r)
		}
	}
}

// Remove deletes the record for key.
func (tx ServerTx) Remove(key msg.CallKey) {
	delete(tx.t.shards[serverShardOf(key)].recs, key)
}

// ServerTx runs f with every server shard locked, for handlers that need
// cross-record atomicity (Terminate Orphan's kill sweep, recovery sweeps).
// The same restrictions as ClientTx apply.
func (fw *Framework) ServerTx(f func(tx ServerTx)) {
	fw.servers.lockAll()
	defer fw.servers.unlockAll()
	f(ServerTx{t: &fw.servers})
}

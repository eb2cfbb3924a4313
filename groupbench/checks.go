package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"sync"
	"sync/atomic"
)

// The checks below compare each workload's outputs against values the
// benchmark computes itself or against properties the configured semantics
// promise. Each is a pure function of what it is handed, so the tests can
// plant a wrong output and watch the check fail.

// verifier collects check failures from concurrent callers and from the
// post-run checks. A run is correct when it holds none.
type verifier struct {
	mu    sync.Mutex
	n     int
	first []string
}

// add records err when it is non-nil.
func (v *verifier) add(err error) {
	if err == nil {
		return
	}
	v.mu.Lock()
	v.n++
	if len(v.first) < 5 {
		v.first = append(v.first, err.Error())
	}
	v.mu.Unlock()
}

// err summarizes the failures, or returns nil when there were none.
func (v *verifier) err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.n == 0 {
		return nil
	}
	return fmt.Errorf("%d check failures; first: %s", v.n, strings.Join(v.first, "; "))
}

// mix64 is the SplitMix64 finalizer: a bijective 64-bit mix used for the
// key/value generator and the call-set hashes.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// --- sim_kv_g3 ---

const kvValLen = 16

// kvValue is the value the writer stores as version ver of key. It is a
// function of the seed, so a get can check the value it read belongs to
// the version it read. Version 0 (never written) is all zeros.
func kvValue(seed int64, key uint32, ver uint64) [kvValLen]byte {
	var v [kvValLen]byte
	if ver == 0 {
		return v
	}
	h := mix64(uint64(seed) ^ uint64(key)<<40 ^ ver)
	binary.BigEndian.PutUint64(v[:8], h)
	binary.BigEndian.PutUint64(v[8:], mix64(h))
	return v
}

// checkPutVersion: with one writer, the k-th put to a key returns version k.
func checkPutVersion(key uint32, k, got uint64) error {
	if got != k {
		return fmt.Errorf("put #%d to key %d returned version %d", k, key, got)
	}
	return nil
}

// checkGetVersion: a get returns a version no lower than the puts to its
// key completed before it was issued (lo) and no higher than the puts
// issued before it completed (hi).
func checkGetVersion(key uint32, lo, hi, got uint64) error {
	if got < lo || got > hi {
		return fmt.Errorf("get of key %d returned version %d outside [%d, %d]", key, got, lo, hi)
	}
	return nil
}

// checkGetValue: the value read is the one the writer stored for the
// version read.
func checkGetValue(seed int64, key uint32, ver uint64, got []byte) error {
	want := kvValue(seed, key, ver)
	if string(got) != string(want[:]) {
		return fmt.Errorf("get of key %d version %d returned a value the writer never stored", key, ver)
	}
	return nil
}

// orderStep folds one applied put into a replica's order digest (FNV-1a
// over key and version), so two replicas have equal digests only if they
// applied the same puts in the same order.
func orderStep(h uint64, key uint32, ver uint64) uint64 {
	const prime = 1099511628211
	h = (h ^ uint64(key)) * prime
	return (h ^ ver) * prime
}

// orderSeed is the empty order digest.
const orderSeed = 14695981039346656037

// checkReplicaCounts: after quiesce every replica holds, for each key, the
// number of puts the generator issued to it.
func checkReplicaCounts(issued []uint64, replicas [][]uint64) error {
	for r, vers := range replicas {
		if len(vers) != len(issued) {
			return fmt.Errorf("replica %d holds %d keys, generator used %d", r, len(vers), len(issued))
		}
		for k, n := range issued {
			if vers[k] != n {
				return fmt.Errorf("replica %d holds version %d of key %d, generator issued %d puts", r, vers[k], k, n)
			}
		}
	}
	return nil
}

// checkReplicaOrder: every replica applied the puts in one identical order.
func checkReplicaOrder(digests []uint64) error {
	for r := 1; r < len(digests); r++ {
		if digests[r] != digests[0] {
			return fmt.Errorf("replica %d applied puts in a different order than replica 0", r)
		}
	}
	return nil
}

// --- tcp_pipe_g3 and sim_tree_lossy_g16 ---

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digest is the reply a member computes for a payload.
func digest(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// checkDigest: the reply is the digest of the payload that was sent.
func checkDigest(payload []byte, got uint32) error {
	if got != digest(payload) {
		return fmt.Errorf("reply %08x is not the digest of the %d-byte payload", got, len(payload))
	}
	return nil
}

// callSet is a multiset of calls kept as a count and a sum of per-call
// hashes, so a member's execution record takes constant memory however long
// the run. Two sets are equal, with overwhelming probability, only if they
// hold the same calls the same number of times.
type callSet struct {
	n, sum atomic.Uint64
}

// callHash identifies call seq of caller.
func callHash(caller uint32, seq uint64) uint64 { return mix64(uint64(caller)<<40 ^ seq) }

func (s *callSet) add(caller uint32, seq uint64) {
	s.n.Add(1)
	s.sum.Add(callHash(caller, seq))
}

// merge adds o's calls to s.
func (s *callSet) merge(o *callSet) {
	s.n.Add(o.n.Load())
	s.sum.Add(o.sum.Load())
}

// checkExactlyOnce: every member executed each issued call exactly once.
func checkExactlyOnce(issued *callSet, members []*callSet) error {
	for m, got := range members {
		if got.n.Load() != issued.n.Load() || got.sum.Load() != issued.sum.Load() {
			return fmt.Errorf("member %d executed %d calls, not each of the %d issued exactly once",
				m, got.n.Load(), issued.n.Load())
		}
	}
	return nil
}

// checkDropped: the lossy workload really lost frames.
func checkDropped(dropped int64) error {
	if dropped <= 0 {
		return fmt.Errorf("transport reported %d drops on a lossy network", dropped)
	}
	return nil
}

package core

import (
	"fmt"

	"mrpc/internal/event"
	"mrpc/internal/stable"
)

// Checkpointable is server state that Atomic Execution can snapshot to
// stable storage and restore after a crash.
type Checkpointable interface {
	// Snapshot serializes the complete (volatile and stable) server state.
	Snapshot() []byte
	// Restore replaces the state with a previously snapshotted one.
	Restore(data []byte) error
}

// DeltaCheckpointable additionally supports incremental checkpoints — the
// optimization the paper sketches for servers with large state (§4.4.5:
// "storing the changes ('deltas') from one checkpoint to the next").
type DeltaCheckpointable interface {
	Checkpointable
	// Delta serializes the changes since the previous Delta or Snapshot
	// call and resets the change tracker. In delta mode Snapshot must
	// reset the tracker too (a full snapshot subsumes pending changes).
	Delta() []byte
	// ApplyDelta replays one delta on top of the current state.
	ApplyDelta(data []byte) error
}

// AtomicExecution makes execution of the server procedure atomic within
// the RPC layer (§4.4.5): after every completed call it checkpoints the
// server state to stable storage, and on recovery it restarts the server
// from the last checkpoint, so a call interrupted by a crash leaves no
// partial effects. It requires Serial Execution (calls are processed one at
// a time, so a checkpoint is always taken at a call boundary).
//
// Cell and Log must outlive crashes: the orchestrator that recreates the
// composite on recovery passes the same Cell/Log (and Store) to the new
// instance, which is how the paper's "stable address" variables old/new
// survive.
//
// With Deltas enabled and a DeltaCheckpointable state, only the changes of
// each call are written, with a full snapshot every CompactEvery deltas to
// bound recovery time.
//
// Reconfiguration: the transition planner refuses any swap that adds,
// removes, or re-parameterizes Atomic Execution on a live node — the
// checkpoint chain's consistency with the in-memory state cannot be
// re-established mid-incarnation (see DESIGN.md D14). A swap that keeps the
// same atomic configuration keeps the same attached instance.
type AtomicExecution struct {
	Store *stable.Store
	Cell  *stable.Cell
	State Checkpointable

	// Deltas enables incremental checkpoints; State must implement
	// DeltaCheckpointable and Log must be non-nil.
	Deltas bool
	// Log is the crash-surviving checkpoint chain (Deltas mode only).
	Log *stable.Log
	// CompactEvery bounds the chain length (default 16).
	CompactEvery int

	b *Binding
}

var _ MicroProtocol = (*AtomicExecution)(nil)

// Name implements MicroProtocol.
func (*AtomicExecution) Name() string { return "Atomic Execution" }

func (a *AtomicExecution) compactEvery() int {
	return OrDefault(a.CompactEvery, DefaultCompactEvery)
}

func (a *AtomicExecution) spec() any {
	// State is an interface; in every supported configuration its dynamic
	// type is a pointer, so identity comparison is well-defined.
	return struct {
		store   *stable.Store
		cell    *stable.Cell
		log     *stable.Log
		state   Checkpointable
		deltas  bool
		compact int
	}{a.Store, a.Cell, a.Log, a.State, a.Deltas, a.compactEvery()}
}

// Attach implements MicroProtocol.
func (a *AtomicExecution) Attach(fw *Framework) error {
	if a.Store == nil || a.State == nil {
		return fmt.Errorf("atomic execution: store and state are required")
	}
	compactEvery := a.compactEvery()
	var deltaState DeltaCheckpointable
	if a.Deltas {
		ds, ok := a.State.(DeltaCheckpointable)
		if !ok {
			return fmt.Errorf("atomic execution: delta mode requires DeltaCheckpointable state")
		}
		if a.Log == nil {
			return fmt.Errorf("atomic execution: delta mode requires a checkpoint log")
		}
		deltaState = ds
	} else if a.Cell == nil {
		return fmt.Errorf("atomic execution: cell is required")
	}
	b := NewBinding(fw)
	a.b = b

	// Priority 2: runs after Unique Execution has retained the response
	// (the paper registers it second as well).
	b.On(event.ReplyFromServer, "AtomicExec.handleReply", PrioReplyAtomic,
		func(*event.Occurrence) {
			if deltaState == nil {
				addr := a.Store.Checkpoint(a.State.Snapshot())
				prev, had := a.Cell.Get()
				a.Cell.Set(addr)
				if had {
					a.Store.Release(prev)
				}
				return
			}
			_, hasBase, _ := a.Log.Chain()
			if !hasBase || a.Log.DeltaCount() >= compactEvery {
				// First checkpoint of a chain, or compaction point: write
				// a full snapshot and release the superseded chain.
				addr := a.Store.Checkpoint(deltaState.Snapshot())
				for _, old := range a.Log.Reset(addr) {
					a.Store.Release(old)
				}
				return
			}
			a.Log.Append(a.Store.Checkpoint(deltaState.Delta()))
		})

	b.On(event.Recovery, "AtomicExec.handleRecovery", event.DefaultPriority,
		func(*event.Occurrence) {
			if deltaState == nil {
				addr, ok := a.Cell.Get()
				if !ok {
					return // crashed before the first checkpoint
				}
				data, err := a.Store.Load(addr)
				if err != nil {
					// The checkpoint the cell points at must exist; a miss
					// is a harness bug, not a simulated fault.
					panic(fmt.Sprintf("atomic execution: recovery load: %v", err))
				}
				if err := a.State.Restore(data); err != nil {
					panic(fmt.Sprintf("atomic execution: restore: %v", err))
				}
				return
			}
			base, ok, deltas := a.Log.Chain()
			if !ok {
				return
			}
			data, err := a.Store.Load(base)
			if err != nil {
				panic(fmt.Sprintf("atomic execution: recovery base load: %v", err))
			}
			if err := deltaState.Restore(data); err != nil {
				panic(fmt.Sprintf("atomic execution: base restore: %v", err))
			}
			for i, da := range deltas {
				d, err := a.Store.Load(da)
				if err != nil {
					panic(fmt.Sprintf("atomic execution: delta %d load: %v", i, err))
				}
				if err := deltaState.ApplyDelta(d); err != nil {
					panic(fmt.Sprintf("atomic execution: delta %d apply: %v", i, err))
				}
			}
		})
	return b.Err()
}

// Detach implements MicroProtocol.
func (a *AtomicExecution) Detach(*Framework) { a.b.Detach() }

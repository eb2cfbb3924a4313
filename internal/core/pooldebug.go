//go:build mrpcdebug

package core

// Debug builds replace the raw sync.Pools with a checking wrapper: Put
// scribbles a sentinel into a field the release path has scrubbed and
// records the object as pooled; Get panics when the sentinel was disturbed
// (a use-after-Put wrote to the object while it sat in the pool) or when
// the pool hands an object out twice without an intervening Put (a
// double-Put gave two goroutines the same envelope). Objects born fresh
// from New carry the zero value and pass unexamined. Enable with:
//
//	go test -tags mrpcdebug ./internal/core ./internal/event

import (
	"fmt"
	"sync"

	"mrpc/internal/msg"
)

const (
	poisonInt   = -0x6b6b6b6b // fits int32 and wider
	poisonInt64 = -0x6b6b6b6b6b6b6b6b
	poisonOp    = msg.UserOp(0x6b) // UserOp is a uint8
)

// poisonedNetMsg is the sentinel a pooled NetEvent's Msg field points at.
var poisonedNetMsg = new(msg.NetMsg)

type debugPool struct {
	p      sync.Pool
	mu     sync.Mutex
	pooled map[any]bool // true = currently in the pool
}

func newPool(f func() any) *debugPool {
	return &debugPool{p: sync.Pool{New: f}, pooled: make(map[any]bool)}
}

func (d *debugPool) Get() any {
	x := d.p.Get()
	d.mu.Lock()
	if in, seen := d.pooled[x]; seen && !in {
		d.mu.Unlock()
		panic(fmt.Sprintf("mrpcdebug: pool handed out a checked-out %T (double-Put upstream)", x))
	}
	d.pooled[x] = false
	d.mu.Unlock()
	checkPoison(x)
	return x
}

func (d *debugPool) Put(x any) {
	d.mu.Lock()
	if d.pooled[x] {
		d.mu.Unlock()
		panic(fmt.Sprintf("mrpcdebug: double-Put of %T", x))
	}
	d.pooled[x] = true
	d.mu.Unlock()
	poison(x)
}

// poison scribbles the sentinel into one field per pooled type — a field
// the release path scrubs to zero, never one it deliberately retains
// (ClientRecord.Sem, the Pending/acks backing arrays).
func poison(x any) {
	switch v := x.(type) {
	case *ClientRecord:
		v.NRes = poisonInt
	case *ServerRecord:
		v.Client = msg.ProcID(poisonInt)
	case *NetEvent:
		v.Msg = poisonedNetMsg
	case *msg.UserMsg:
		v.Type = poisonOp
	case *msg.CallKey:
		v.ID = poisonInt64
	case *msg.CallID:
		*v = poisonInt64
	case *relEntry:
		v.id = poisonInt64
	}
}

// checkPoison verifies the sentinel survived the object's stay in the pool
// and restores the zero value. Zero means fresh-from-New; anything else is
// a write that happened after Put.
func checkPoison(x any) {
	dirty := func() {
		panic(fmt.Sprintf("mrpcdebug: dirty Get of %T: object was written while pooled (use-after-Put)", x))
	}
	switch v := x.(type) {
	case *ClientRecord:
		switch v.NRes {
		case poisonInt:
			v.NRes = 0
		case 0:
		default:
			dirty()
		}
	case *ServerRecord:
		switch v.Client {
		case msg.ProcID(poisonInt):
			v.Client = 0
		case 0:
		default:
			dirty()
		}
	case *NetEvent:
		switch v.Msg {
		case poisonedNetMsg:
			v.Msg = nil
		case nil:
		default:
			dirty()
		}
	case *msg.UserMsg:
		switch v.Type {
		case poisonOp:
			v.Type = 0
		case 0:
		default:
			dirty()
		}
	case *msg.CallKey:
		switch v.ID {
		case poisonInt64:
			v.ID = 0
		case 0:
		default:
			dirty()
		}
	case *msg.CallID:
		switch *v {
		case poisonInt64:
			*v = 0
		case 0:
		default:
			dirty()
		}
	case *relEntry:
		switch v.id {
		case poisonInt64:
			v.id = 0
		case 0:
		default:
			dirty()
		}
	}
}

// checkDrop panics when DropServerCall takes the record of an executing
// call. The call's kill token is shared with its generation, so a drop
// cannot kill it; only the orphan sweep (dropCallsOlderThan), which kills
// the generation first, may take a call out from under its procedure.
func checkDrop(rec *ServerRecord) {
	if rec.executing {
		panic(fmt.Sprintf("mrpcdebug: DropServerCall took executing call %v outside the orphan sweep", rec.Key))
	}
}

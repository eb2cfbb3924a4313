// Package stub provides the client/server stub layer the paper assumes
// above gRPC: an operation registry that dispatches incoming calls to
// registered procedures, and argument marshalling helpers. From gRPC's
// perspective arguments remain one untyped byte field (§4.1); this package
// is where typed values are packed into and out of it.
package stub

import (
	"fmt"
	"sort"
	"sync"

	"mrpc/internal/msg"
	"mrpc/internal/proc"
)

// Handler executes one registered operation. th is the kill token of the
// calling client's incarnation, shared by all of its calls (nil for locally
// dispatched test calls); long-running handlers should poll th.IsKilled()
// at convenient points.
type Handler func(th *proc.Thread, args []byte) []byte

// Registry maps operation ids to handlers; it implements core.Server.
type Registry struct {
	mu       sync.RWMutex
	handlers map[msg.OpID]Handler
	names    map[msg.OpID]string
	byName   map[string]msg.OpID
	nextOp   msg.OpID
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		handlers: make(map[msg.OpID]Handler),
		names:    make(map[msg.OpID]string),
		byName:   make(map[string]msg.OpID),
		nextOp:   1,
	}
}

// Register adds a named operation and returns its id. Registering the same
// name twice returns the existing id with the handler replaced.
func (r *Registry) Register(name string, h Handler) msg.OpID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if op, ok := r.byName[name]; ok {
		r.handlers[op] = h
		return op
	}
	op := r.nextOp
	r.nextOp++
	r.handlers[op] = h
	r.names[op] = name
	r.byName[name] = op
	return op
}

// RegisterAt adds a named operation under a caller-chosen id (for stable
// wire contracts). It fails if the id or name is taken by another op.
func (r *Registry) RegisterAt(op msg.OpID, name string, h Handler) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.names[op]; ok && existing != name {
		return fmt.Errorf("stub: op %d already registered as %q", op, existing)
	}
	if existing, ok := r.byName[name]; ok && existing != op {
		return fmt.Errorf("stub: name %q already registered as op %d", name, existing)
	}
	r.handlers[op] = h
	r.names[op] = name
	r.byName[name] = op
	if op >= r.nextOp {
		r.nextOp = op + 1
	}
	return nil
}

// Op returns the id registered for name.
func (r *Registry) Op(name string) (msg.OpID, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	op, ok := r.byName[name]
	return op, ok
}

// Name returns the name registered for op.
func (r *Registry) Name(op msg.OpID) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.names[op]
	return n, ok
}

// Names returns all registered operation names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Pop implements core.Server: it dispatches the call to the registered
// handler. An unknown operation returns an empty result (the RPC layer has
// no error channel for it, as in the paper; applications encode their own
// status in the result bytes — see Writer/Reader).
func (r *Registry) Pop(th *proc.Thread, op msg.OpID, args []byte) []byte {
	r.mu.RLock()
	h, ok := r.handlers[op]
	r.mu.RUnlock()
	if !ok {
		return nil
	}
	return h(th, args)
}

// Package proc models processes (sites) and server threads for the
// configurable group RPC service.
//
// The paper's system model has sites that fail by crashing and later
// recover with a new incarnation number, and server threads that the
// Terminate Orphan micro-protocol kills — always a whole client incarnation
// at a time. Site captures the former; Thread, one kill token per (client,
// incarnation) generation, the latter. Kill is cooperative (deviation D5 in
// DESIGN.md): the procedure receives the Thread and must observe Killed.
package proc

import (
	"sync"
	"sync/atomic"

	"mrpc/internal/msg"
)

// Thread is a kill token, shared by every call of one (client,
// incarnation) generation; my_thread() of the pseudocode corresponds to the
// Thread handed to the procedure, kill(thread) to the Kill method. Go
// returns a token owning one background goroutine of the framework.
type Thread struct {
	id     int64
	client msg.ProcID      // client whose generation the token serves
	inc    msg.Incarnation // that generation's incarnation
	// done is non-nil only for goroutine-backed threads (Go); it is closed
	// when the thread's function returns. Set before the goroutine starts
	// and never reassigned.
	done chan struct{}

	killed atomic.Bool // read lock-free: a generation's calls share the token
	mu     sync.Mutex
	// kill is created lazily by the first Killed() call: most tokens are
	// never selected on, so the common case allocates no channel.
	kill chan struct{}
}

// Go runs fn on its own goroutine bound to a fresh detached Thread and
// returns the Thread. The spawner owns the handle: Kill requests cooperative
// termination (fn observes it via Killed/IsKilled) and Done reports exit.
// All framework goroutines outside internal/proc and internal/transport are
// spawned through Go — never with a bare go statement — so every long-lived
// goroutine has a handle through which crash injection and shutdown paths
// can reap it (enforced by mrpclint's goroutine-discipline rule).
func Go(fn func(*Thread)) *Thread {
	t := &Thread{done: make(chan struct{})}
	go func() {
		defer close(t.done)
		fn(t)
	}()
	return t
}

// Done returns a channel closed when the function of a goroutine-backed
// thread (started with Go) has returned. It returns nil for the tokens of
// a Threads registry, which have no goroutine of their own.
func (t *Thread) Done() <-chan struct{} { return t.done }

// ID names the token; for a registry token, its generation.
func (t *Thread) ID() int64 { return t.id }

// Client returns the client whose generation the token serves.
func (t *Thread) Client() msg.ProcID { return t.client }

// Kill requests termination. It is idempotent and non-blocking; the running
// procedures observe it through Killed.
func (t *Thread) Kill() {
	t.mu.Lock()
	if !t.killed.Swap(true) && t.kill != nil {
		close(t.kill)
	}
	t.mu.Unlock()
}

// Killed returns a channel closed when the thread has been killed. Server
// procedures select on it (or poll IsKilled) at convenient points.
func (t *Thread) Killed() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.kill == nil {
		t.kill = make(chan struct{})
		if t.killed.Load() {
			close(t.kill)
		}
	}
	return t.kill
}

// IsKilled reports whether Kill has been called.
func (t *Thread) IsKilled() bool { return t.killed.Load() }

// Threads is one site's registry of kill tokens: one live token per
// (client, incarnation) generation, so it grows with incarnations, never
// with calls.
type Threads struct {
	mu      sync.Mutex
	next    int64
	clients map[msg.ProcID]*generations
	dead    *Thread // shared pre-killed token, handed out below a floor
}

// generations is one client's entry: every incarnation below floor is
// dead; tokens holds the live generations at or above it.
type generations struct {
	floor  msg.Incarnation
	tokens []*Thread
}

// NewThreads returns an empty registry.
func NewThreads() *Threads {
	r := &Threads{clients: make(map[msg.ProcID]*generations), dead: &Thread{}}
	r.dead.Kill()
	return r
}

// For returns the live token of client's generation inc, creating it on
// the generation's first call. Below the client's killed floor it returns
// the shared pre-killed token and records nothing.
func (r *Threads) For(client msg.ProcID, inc msg.Incarnation) *Thread {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.clients[client]
	if g == nil {
		g = &generations{}
		r.clients[client] = g
	}
	if inc < g.floor {
		return r.dead
	}
	for _, t := range g.tokens {
		if t.inc == inc {
			return t
		}
	}
	r.next++
	t := &Thread{id: r.next, client: client, inc: inc}
	g.tokens = append(g.tokens, t)
	return t
}

// KillBelow kills every generation of client older than inc and raises the
// client's floor to inc: a newer incarnation proves the older ones dead.
func (r *Threads) KillBelow(client msg.ProcID, inc msg.Incarnation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.clients[client]
	if g == nil {
		g = &generations{}
		r.clients[client] = g
	}
	g.floor = max(g.floor, inc)
	live := g.tokens[:0]
	for _, t := range g.tokens {
		if t.inc < inc {
			t.Kill()
		} else {
			live = append(live, t)
		}
	}
	clear(g.tokens[len(live):])
	g.tokens = live
}

// KillClient kills every generation of client and forgets them, keeping
// the floor: if the client was only presumed dead, its retransmitted calls
// run under a fresh token.
func (r *Threads) KillClient(client msg.ProcID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.clients[client]; g != nil {
		g.kill()
	}
}

// KillAll is KillClient for every client; used on site crash.
func (r *Threads) KillAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.clients {
		g.kill()
	}
}

// kill kills and forgets every live token, keeping the floor.
func (g *generations) kill() {
	for _, t := range g.tokens {
		t.Kill()
	}
	g.tokens = nil
}

// Live returns the number of live tokens.
func (r *Threads) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, g := range r.clients {
		n += len(g.tokens)
	}
	return n
}

// Site tracks the crash/recovery lifecycle of one process. Incarnation
// numbers increase across recoveries; the orphan-handling micro-protocols
// use them to partition calls into generations.
type Site struct {
	id msg.ProcID

	mu  sync.Mutex
	inc msg.Incarnation
	up  bool
}

// NewSite returns an up site with incarnation 1.
func NewSite(id msg.ProcID) *Site {
	return &Site{id: id, inc: 1, up: true}
}

// ID returns the process id.
func (s *Site) ID() msg.ProcID { return s.id }

// Inc returns the current incarnation number.
func (s *Site) Inc() msg.Incarnation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inc
}

// Up reports whether the site is up.
func (s *Site) Up() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.up
}

// Crash marks the site down. It reports whether the site was up.
func (s *Site) Crash() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	was := s.up
	s.up = false
	return was
}

// Recover marks the site up under a fresh (strictly larger) incarnation and
// returns it.
func (s *Site) Recover() msg.Incarnation {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inc++
	s.up = true
	return s.inc
}

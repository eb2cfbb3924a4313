package proc

import (
	"sync"
	"testing"
	"time"

	"mrpc/internal/msg"
)

func TestThreadKill(t *testing.T) {
	r := NewThreads()
	th := r.For(7, 1)
	if th.IsKilled() {
		t.Fatal("fresh thread reports killed")
	}
	if th.Client() != 7 {
		t.Fatalf("client = %d", th.Client())
	}
	th.Kill()
	th.Kill() // idempotent
	if !th.IsKilled() {
		t.Fatal("killed thread reports alive")
	}
	select {
	case <-th.Killed():
	case <-time.After(time.Second):
		t.Fatal("Killed channel not closed")
	}
}

// TestThreadsRegistry: one token per (client, incarnation) generation,
// shared by every call of it, however many calls arrive.
func TestThreadsRegistry(t *testing.T) {
	r := NewThreads()
	t1 := r.For(1, 1)
	t2 := r.For(2, 1)
	if t1.ID() == t2.ID() {
		t.Fatal("token ids collide")
	}
	for i := 0; i < 10000; i++ {
		if r.For(1, 1) != t1 {
			t.Fatal("a generation's calls got different tokens")
		}
	}
	if r.For(1, 2) == t1 {
		t.Fatal("a newer incarnation shares the old generation's token")
	}
	if r.Live() != 3 {
		t.Fatalf("live = %d, want 3", r.Live())
	}
}

func TestKillAll(t *testing.T) {
	r := NewThreads()
	ths := []*Thread{r.For(1, 1), r.For(2, 1), r.For(2, 2)}
	r.KillAll()
	for i, th := range ths {
		if !th.IsKilled() {
			t.Fatalf("token %d not killed", i)
		}
	}
	if r.Live() != 0 {
		t.Fatalf("live = %d after KillAll", r.Live())
	}
	r.KillAll()
	if r.Live() != 0 {
		t.Fatalf("live = %d after second KillAll", r.Live())
	}
}

// TestTokenKillBelow: a newer incarnation kills every older generation and
// raises the floor; the newer generation is untouched, and a late call of a
// dead incarnation gets the shared pre-killed token without growing the
// registry.
func TestTokenKillBelow(t *testing.T) {
	r := NewThreads()
	old1, old2, cur := r.For(5, 1), r.For(5, 2), r.For(5, 3)
	other := r.For(6, 1)
	r.KillBelow(5, 3)
	if !old1.IsKilled() || !old2.IsKilled() {
		t.Fatal("older generations survived KillBelow")
	}
	if cur.IsKilled() || other.IsKilled() {
		t.Fatal("KillBelow touched the newer generation or another client")
	}
	late := r.For(5, 2)
	if !late.IsKilled() {
		t.Fatal("a call below the floor got a live token")
	}
	if r.For(5, 1) != late {
		t.Fatal("calls below the floor do not share the pre-killed token")
	}
	if r.Live() != 2 {
		t.Fatalf("live = %d, want 2 (current generation + other client)", r.Live())
	}
	if r.For(5, 3) != cur {
		t.Fatal("the current generation's token changed")
	}
}

// TestTokenKillClient: a probe kill kills the client's tokens and forgets
// them, so the same incarnation's retransmitted calls run under a fresh
// live token; the floor a newer incarnation raised stays.
func TestTokenKillClient(t *testing.T) {
	r := NewThreads()
	r.KillBelow(5, 2)
	th := r.For(5, 2)
	r.KillClient(5)
	if !th.IsKilled() {
		t.Fatal("KillClient left the token alive")
	}
	fresh := r.For(5, 2)
	if fresh == th || fresh.IsKilled() {
		t.Fatal("the retransmitted call did not get a fresh live token")
	}
	if !r.For(5, 1).IsKilled() {
		t.Fatal("KillClient forgot the floor")
	}
	r.KillClient(9) // unknown client: no-op
}

// TestTokenConcurrent runs For, KillBelow, KillClient and KillAll against
// each other (meaningful under -race): no token handed out after its
// generation was killed below the floor is live.
func TestTokenConcurrent(t *testing.T) {
	r := NewThreads()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				client := msg.ProcID(i % 3)
				inc := msg.Incarnation(1 + i/500)
				switch (i + w) % 7 {
				case 0:
					r.KillBelow(client, inc)
					if th := r.For(client, inc-1); inc > 1 && !th.IsKilled() {
						t.Errorf("For(%d, %d) below the floor is live", client, inc-1)
						return
					}
				case 1:
					r.KillClient(client)
				case 2:
					if i%100 == 2 {
						r.KillAll()
					}
				default:
					th := r.For(client, inc)
					_ = th.IsKilled()
					<-th.Killed()
				}
			}
		}(w)
	}
	// Killing everything repeatedly keeps the Killed waits above finite.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				r.KillAll()
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	r.KillAll()
	if r.Live() != 0 {
		t.Fatalf("live = %d after KillAll", r.Live())
	}
}

func TestSiteLifecycle(t *testing.T) {
	s := NewSite(9)
	if s.ID() != 9 || !s.Up() || s.Inc() != 1 {
		t.Fatalf("fresh site: id=%d up=%t inc=%d", s.ID(), s.Up(), s.Inc())
	}
	if !s.Crash() {
		t.Fatal("Crash on up site returned false")
	}
	if s.Crash() {
		t.Fatal("Crash on down site returned true")
	}
	if s.Up() {
		t.Fatal("site up after crash")
	}
	if inc := s.Recover(); inc != 2 {
		t.Fatalf("recover inc = %d, want 2", inc)
	}
	if !s.Up() || s.Inc() != 2 {
		t.Fatal("site state wrong after recovery")
	}
	s.Crash()
	if inc := s.Recover(); inc != 3 {
		t.Fatalf("second recovery inc = %d, want 3 (strictly increasing)", inc)
	}
}

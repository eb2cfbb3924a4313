package config

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mrpc/internal/core"
)

func TestTransitionIdentityIsLive(t *testing.T) {
	for _, c := range []Config{ExactlyOncePreset(), ReplicatedService(), AtMostOncePreset()} {
		plan, err := PlanTransition(c, c)
		if err != nil {
			t.Fatalf("identity transition for %s: %v", c, err)
		}
		if plan.Class != TransitionLive || len(plan.Changed) != 0 {
			t.Fatalf("identity transition for %s: class=%v changed=%v", c, plan.Class, plan.Changed)
		}
	}
}

func TestTransitionClassification(t *testing.T) {
	exa := ExactlyOncePreset()
	rep := ReplicatedService()

	// The flagship swap: exactly-once -> total-order replicated service.
	// Ordering changes (drain); execution and acceptance change (live).
	plan, err := PlanTransition(exa, rep)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Class != TransitionDrain {
		t.Fatalf("exactly-once -> replicated-service: class=%v, want drain", plan.Class)
	}
	has := func(name string) bool {
		for _, c := range plan.Changed {
			if c == name {
				return true
			}
		}
		return false
	}
	if !has("ordering") || !has("execution") || !has("acceptance") {
		t.Fatalf("changed = %v, want ordering+execution+acceptance", plan.Changed)
	}

	// And back again.
	plan, err = PlanTransition(rep, exa)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Class != TransitionDrain {
		t.Fatalf("replicated-service -> exactly-once: class=%v, want drain", plan.Class)
	}

	// Acceptance limit alone is live.
	to := exa
	to.AcceptanceLimit = 2
	plan, err = PlanTransition(exa, to)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Class != TransitionLive || len(plan.Changed) != 1 || plan.Changed[0] != "acceptance" {
		t.Fatalf("acceptance-only: class=%v changed=%v", plan.Class, plan.Changed)
	}

	// Unique on/off alone is live.
	to = exa
	to.Unique = false
	plan, err = PlanTransition(exa, to)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Class != TransitionLive {
		t.Fatalf("unique-only: class=%v", plan.Class)
	}

	// Call synchrony is drain.
	to = exa
	to.Call = CallAsynchronous
	plan, err = PlanTransition(exa, to)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Class != TransitionDrain {
		t.Fatalf("call-synchrony: class=%v", plan.Class)
	}

	// A retransmission-timeout change is drain; the zero value normalizes
	// to the default, so 0 -> 20ms is NOT a change.
	to = exa
	to.RetransTimeout = 50 * time.Millisecond
	plan, err = PlanTransition(exa, to)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Class != TransitionDrain {
		t.Fatalf("retrans change: class=%v", plan.Class)
	}
	to.RetransTimeout = 20 * time.Millisecond
	from := exa
	from.RetransTimeout = 0
	plan, err = PlanTransition(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Changed) != 0 {
		t.Fatalf("normalized retrans: changed=%v", plan.Changed)
	}
}

// TestTransitionUnsetIsCoreDefault: the planner reads an unset parameter
// as the default the running micro-protocol applies, so moving from unset
// to that default changes nothing and moving past it does.
func TestTransitionUnsetIsCoreDefault(t *testing.T) {
	base := ExactlyOncePreset()
	base.Bounded = true
	base.Orphan = OrphanTerminate
	base.OrphanProbeInterval = 10 * time.Millisecond
	for _, tc := range []struct {
		name string
		set  func(c *Config, scale int)
	}{
		{"reliable", func(c *Config, k int) { c.RetransTimeout = time.Duration(k) * core.DefaultRetransTimeout }},
		{"bounded", func(c *Config, k int) { c.TimeBound = time.Duration(k) * core.DefaultTimeBound }},
		{"orphan", func(c *Config, k int) { c.OrphanProbeMisses = k * core.DefaultProbeMisses }},
		{"flush", func(c *Config, k int) { c.FlushSize = k * core.DefaultFlushSize }},
	} {
		from, same, other := base, base, base
		tc.set(&from, 0)
		tc.set(&same, 1)
		tc.set(&other, 2)
		if plan, err := PlanTransition(from, same); err != nil || len(plan.Changed) != 0 {
			t.Fatalf("%s: unset -> default: changed=%v err=%v, want no change", tc.name, plan.Changed, err)
		}
		if plan, err := PlanTransition(from, other); err != nil || len(plan.Changed) != 1 || plan.Changed[0] != tc.name {
			t.Fatalf("%s: unset -> twice the default: changed=%v err=%v", tc.name, plan.Changed, err)
		}
	}

	atomic := AtMostOncePreset()
	same := atomic
	same.AtomicCompactEvery = core.DefaultCompactEvery
	if _, err := PlanTransition(atomic, same); err != nil {
		t.Fatalf("atomic: unset -> default compaction: %v", err)
	}
	same.AtomicCompactEvery *= 2
	if _, err := PlanTransition(atomic, same); !errors.Is(err, ErrTransitionAtomicParams) {
		t.Fatalf("atomic: unset -> twice the default compaction: err=%v, want ErrTransitionAtomicParams", err)
	}
}

func TestTransitionAtomicIllegal(t *testing.T) {
	// Adding atomic execution live is rejected with a diagnosable error.
	_, err := PlanTransition(ExactlyOncePreset(), AtMostOncePreset())
	if !errors.Is(err, ErrTransitionAtomic) {
		t.Fatalf("exactly-once -> at-most-once: err=%v, want ErrTransitionAtomic", err)
	}
	if !strings.Contains(err.Error(), "restart the node") {
		t.Fatalf("error is not diagnosable: %v", err)
	}
	// Removing it, likewise.
	if _, err := PlanTransition(AtMostOncePreset(), ExactlyOncePreset()); !errors.Is(err, ErrTransitionAtomic) {
		t.Fatalf("at-most-once -> exactly-once: err=%v", err)
	}
	// Re-parameterizing it, likewise.
	from, to := AtMostOncePreset(), AtMostOncePreset()
	to.AtomicDeltas = !from.AtomicDeltas
	if _, err := PlanTransition(from, to); !errors.Is(err, ErrTransitionAtomicParams) {
		t.Fatalf("atomic param change: err=%v", err)
	}
	// An invalid endpoint is rejected before classification.
	bad := ExactlyOncePreset()
	bad.Ordering = OrderTotal // total order requires unique + serial
	bad.Unique = false
	if _, err := PlanTransition(ExactlyOncePreset(), bad); err == nil {
		t.Fatal("invalid target config accepted")
	}
}

// TestTransitionMatrixGolden pins the transition matrix over the paper's 198
// enumerated configurations crossed with the dissemination dimension (flat,
// tree(2), tree(3) — D17): 594 configurations, 352836 ordered pairs. The
// atomic-execution illegality is orthogonal to dissemination, so illegal
// pairs scale by 9 (17424*9 = 156816). Live pairs require identical
// dissemination (a fanout change is drain), so they scale by 3 (1710*3 =
// 5130); everything else is drain.
func TestTransitionMatrixGolden(t *testing.T) {
	m := EnumerateTransitions()
	if m.Configs != 594 || m.Pairs != 352836 {
		t.Fatalf("matrix size: configs=%d pairs=%d", m.Configs, m.Pairs)
	}
	if m.Live+m.Drain+m.Illegal != m.Pairs {
		t.Fatalf("classes do not partition the pairs: %+v", m)
	}
	if m.Illegal != 156816 {
		t.Fatalf("illegal = %d, want 9*2*66*132 = 156816", m.Illegal)
	}
	if m.Live != 5130 || m.Drain != 190890 {
		t.Fatalf("live=%d drain=%d, want 5130/190890", m.Live, m.Drain)
	}
}

// TestTransitionDissemination pins the dissemination dimension's transition
// semantics: any shape or fanout change drains; flat->flat and same-k
// tree->tree are no-ops.
func TestTransitionDissemination(t *testing.T) {
	flat := ExactlyOncePreset()
	tree2, tree3 := flat, flat
	tree2.Dissemination, tree2.TreeFanout = DissTree, 2
	tree3.Dissemination, tree3.TreeFanout = DissTree, 3

	for _, tc := range []struct {
		from, to Config
		drain    bool
	}{
		{flat, tree3, true},
		{tree3, flat, true},
		{tree2, tree3, true},
		{tree3, tree3, false},
	} {
		plan, err := PlanTransition(tc.from, tc.to)
		if err != nil {
			t.Fatal(err)
		}
		if tc.drain {
			if plan.Class != TransitionDrain || len(plan.Changed) != 1 || plan.Changed[0] != "dissemination" {
				t.Fatalf("%s -> %s: class=%v changed=%v", tc.from, tc.to, plan.Class, plan.Changed)
			}
		} else if len(plan.Changed) != 0 {
			t.Fatalf("%s -> %s: changed=%v, want none", tc.from, tc.to, plan.Changed)
		}
	}

	// TreeFanout 0 normalizes to the default 3: tree(0) -> tree(3) is a no-op.
	tree0 := flat
	tree0.Dissemination = DissTree
	plan, err := PlanTransition(tree0, tree3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Changed) != 0 {
		t.Fatalf("tree(default) -> tree(3): changed=%v, want none", plan.Changed)
	}
}

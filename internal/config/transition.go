package config

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"mrpc/internal/core"
)

// TransitionClass classifies how a legal reconfiguration must be applied to
// a running node (the dynamic companion of Figure 4: the dependency graph
// says which compositions exist, the transition class says how to move
// between two of them without violating either's guarantees).
type TransitionClass int

// Transition classes.
const (
	// TransitionLive transitions swap micro-protocols under the dispatch
	// barrier alone: in-flight calls keep the semantics they were issued
	// under, calls admitted after the swap get the new semantics, and
	// nothing needs to finish first. Changing only the acceptance limit,
	// collation policy, duplicate suppression, orphan handling, or the
	// serial/concurrent execution property is live.
	TransitionLive TransitionClass = iota + 1
	// TransitionDrain transitions must quiesce first: admission of new
	// calls stops and in-flight client calls run to completion before the
	// swap, because the changed property spans a call's whole lifetime
	// (its blocking discipline, its retransmission state, its deadline, or
	// its position in an inter-call order).
	TransitionDrain
)

// String returns the class name.
func (t TransitionClass) String() string {
	switch t {
	case TransitionLive:
		return "live"
	case TransitionDrain:
		return "drain"
	default:
		return fmt.Sprintf("class(%d)", int(t))
	}
}

// Transition is the plan for moving a running node between two legal
// configurations.
type Transition struct {
	// Class is the strongest requirement among the changed properties.
	Class TransitionClass
	// Changed names the properties that differ, in a fixed order.
	Changed []string
}

// Transition errors.
var (
	// ErrTransitionAtomic rejects adding or removing atomic execution on a
	// live node: the checkpoint chain's relationship to the in-memory
	// server state is established at Start (or recovery) and cannot be
	// re-established mid-incarnation — a checkpoint taken by a freshly
	// attached Atomic Execution would capture state produced by calls it
	// never logged, and removing it leaves a stale chain a later recovery
	// would wrongly restore. Restart the node to change atomicity.
	ErrTransitionAtomic = errors.New(
		"config: transition changes atomic execution on a live node; atomicity is fixed per incarnation (restart the node instead)")
	// ErrTransitionAtomicParams rejects re-parameterizing atomic execution
	// (delta mode, compaction cadence) live, for the same reason: the
	// checkpoint chain's shape is part of the incarnation's recovery
	// contract.
	ErrTransitionAtomicParams = errors.New(
		"config: transition changes atomic-execution parameters on a live node; the checkpoint chain's shape is fixed per incarnation (restart the node instead)")
)

// differs reports whether two settings of a parameter whose unset value
// means def differ once normalised as the micro-protocol normalises them.
func differs[T int | time.Duration](a, b, def T) bool {
	return core.OrDefault(a, def) != core.OrDefault(b, def)
}

func collatePtr(f core.CollateFunc) uintptr {
	if f == nil {
		f = core.LastReply
	}
	return reflect.ValueOf(f).Pointer()
}

// PlanTransition validates a reconfiguration from one running configuration
// to another and classifies it. Both configurations must be legal on their
// own (Validate); on top of that, atomic execution may not be added,
// removed, or re-parameterized live. The returned plan carries the
// strongest class any changed property demands and the list of changed
// properties, for diagnostics.
func PlanTransition(from, to Config) (Transition, error) {
	if err := from.Validate(); err != nil {
		return Transition{}, fmt.Errorf("transition: current configuration: %w", err)
	}
	if err := to.Validate(); err != nil {
		return Transition{}, fmt.Errorf("transition: new configuration: %w", err)
	}
	if (from.Execution == ExecAtomic) != (to.Execution == ExecAtomic) {
		return Transition{}, ErrTransitionAtomic
	}
	if from.Execution == ExecAtomic &&
		(from.AtomicDeltas != to.AtomicDeltas ||
			differs(from.AtomicCompactEvery, to.AtomicCompactEvery, core.DefaultCompactEvery)) {
		return Transition{}, ErrTransitionAtomicParams
	}

	t := Transition{Class: TransitionLive}
	changed := func(name string, class TransitionClass) {
		t.Changed = append(t.Changed, name)
		if class > t.Class {
			t.Class = class
		}
	}

	// Drain-class properties span a call's whole lifetime.
	if from.Call != to.Call {
		// The blocking discipline (who parks where, how results are
		// collected) is fixed when the call is admitted.
		changed("call", TransitionDrain)
	}
	if from.Reliable != to.Reliable ||
		(to.Reliable && differs(from.RetransTimeout, to.RetransTimeout, core.DefaultRetransTimeout)) {
		// Retransmission state is per in-flight call; the same-set
		// property the ordering protocols rely on must not see a gap.
		changed("reliable", TransitionDrain)
	}
	if from.Bounded != to.Bounded ||
		(to.Bounded && differs(from.TimeBound, to.TimeBound, core.DefaultTimeBound)) {
		// A call's deadline is promised at admission.
		changed("bounded", TransitionDrain)
	}
	if from.Ordering != to.Ordering {
		// Order is a relation between calls; calls admitted under two
		// different regimes have no defined relative order, so the old
		// regime's calls finish first (held ones are re-homed).
		changed("ordering", TransitionDrain)
	}
	if from.Dissemination != to.Dissemination ||
		from.EffectiveFanout() != to.EffectiveFanout() {
		// A frame's tree shape is stamped at send time and drives relay,
		// ack aggregation and repair at every hop until the frame settles;
		// mixing shapes mid-call would strand aggregation state (D17).
		changed("dissemination", TransitionDrain)
	}

	// Live-class properties act per call at a single point.
	if from.Unique != to.Unique {
		changed("unique", TransitionLive)
	}
	if from.Execution != to.Execution {
		changed("execution", TransitionLive)
	}
	if from.Orphan != to.Orphan ||
		(to.Orphan == OrphanTerminate &&
			(from.OrphanProbeInterval != to.OrphanProbeInterval ||
				differs(from.OrphanProbeMisses, to.OrphanProbeMisses, core.DefaultProbeMisses))) {
		changed("orphan", TransitionLive)
	}
	if from.AcceptanceLimit != to.AcceptanceLimit {
		changed("acceptance", TransitionLive)
	}
	if collatePtr(from.Collate) != collatePtr(to.Collate) ||
		string(from.CollateInit) != string(to.CollateInit) {
		changed("collation", TransitionLive)
	}
	if differs(from.FlushSize, to.FlushSize, core.DefaultFlushSize) {
		// Batch size only shapes framing of future sends; in-flight batches
		// drain under whichever cap they were queued with.
		changed("flush", TransitionLive)
	}
	return t, nil
}

// TransitionMatrix summarizes PlanTransition over every ordered pair of the
// enumerated configurations — the 198 semantic services of Enumerate
// crossed with the dissemination dimension (flat, tree(2), tree(3)), which
// is orthogonal to the Figure 4 dependency graph (D17).
type TransitionMatrix struct {
	Configs int // enumerated configurations
	Pairs   int // ordered pairs, including identity
	Live    int
	Drain   int
	Illegal int
}

// EnumerateWithDissemination crosses the paper's 198 semantic services
// with the dissemination dimension: flat, tree(2) and tree(3). The
// dimension is orthogonal (every cross is legal), so the count is 594.
func EnumerateWithDissemination() []Config {
	base := Enumerate()
	all := make([]Config, 0, 3*len(base))
	for _, c := range base {
		all = append(all, c)
		for _, k := range []int{2, 3} {
			t := c
			t.Dissemination = DissTree
			t.TreeFanout = k
			all = append(all, t)
		}
	}
	return all
}

// EnumerateTransitions classifies every ordered pair of enumerated
// configurations (including the dissemination dimension). Identity pairs
// (from == to) count as live (an empty swap).
func EnumerateTransitions() TransitionMatrix {
	all := EnumerateWithDissemination()
	m := TransitionMatrix{Configs: len(all), Pairs: len(all) * len(all)}
	for _, from := range all {
		for _, to := range all {
			plan, err := PlanTransition(from, to)
			switch {
			case err != nil:
				m.Illegal++
			case plan.Class == TransitionDrain:
				m.Drain++
			default:
				m.Live++
			}
		}
	}
	return m
}

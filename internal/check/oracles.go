package check

import (
	"fmt"

	"mrpc/internal/config"
	"mrpc/internal/msg"
	"mrpc/internal/trace"
)

// Violation is one oracle finding: a property the trace fails to satisfy.
type Violation struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

func (v Violation) String() string { return v.Oracle + ": " + v.Detail }

// Oracle is one executable property check. Applies decides from the run
// profile whether the property was promised by the configuration timeline
// (a trace can only violate what its configuration guarantees); Check scans
// the trace and returns every violation found.
type Oracle struct {
	// Name identifies the oracle in violations and seed artifacts.
	Name string
	// Property is the paper property (micro-protocol) the oracle checks.
	Property string
	// Applies reports whether the property is promised for this run.
	Applies func(p Profile, t *Trace) bool
	// Check scans the trace for violations of the property.
	Check func(p Profile, t *Trace) []Violation
}

// Oracles returns the full oracle set, one or more per micro-protocol of
// the paper's Figure 4 (plus the causal-order extension). The order is the
// evaluation order; it has no semantic weight.
func Oracles() []Oracle {
	return []Oracle{
		wellFormedOracle(),
		completionOracle(),
		statusValidityOracle(),
		boundedTerminationOracle(),
		sameSetOracle(),
		atMostOnceOracle(),
		serialExecOracle(),
		atomicDeliveryOracle(),
		fifoOrderOracle(),
		totalOrderOracle(),
		causalOrderOracle(),
		replyDedupOracle(),
		collationCountOracle(),
		orphanInterferenceOracle(),
		orphanTerminateOracle(),
		noFalseSuspicionOracle(),
	}
}

// Evaluate runs every applicable oracle over the trace and returns the
// combined violations (nil when the trace conforms).
func Evaluate(p Profile, t *Trace) []Violation {
	var out []Violation
	for _, o := range Oracles() {
		if o.Applies != nil && !o.Applies(p, t) {
			continue
		}
		out = append(out, o.Check(p, t)...)
	}
	return out
}

func violation(oracle, format string, args ...any) Violation {
	return Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...)}
}

func always(Profile, *Trace) bool { return true }

// anyTimeout reports whether any call in the trace ended TIMEOUT. Oracles
// that reason about the executed-call sets use it: a timed-out call's
// retransmissions stop when the client collects it, so partial delivery to
// the group is legitimate.
func anyTimeout(t *Trace) bool {
	for _, ci := range t.calls {
		for _, d := range ci.dones {
			if d.Status == msg.StatusTimeout {
				return true
			}
		}
	}
	return false
}

// inGroup reports whether p is a member of g.
func inGroup(g msg.Group, p msg.ProcID) bool {
	for _, m := range g {
		if m == p {
			return true
		}
	}
	return false
}

// --- RPC Main: structural well-formedness ----------------------------------

// wellFormedOracle checks the structural sanity every configuration
// promises: completions and accepted replies belong to issued calls, a call
// reaches at most one terminal status, terminal statuses are legal, and
// exec begin/end events pair up per call at each site incarnation.
func wellFormedOracle() Oracle {
	const name = "well-formed"
	return Oracle{
		Name:     name,
		Property: "RPC Main",
		Applies:  always,
		Check: func(p Profile, t *Trace) []Violation {
			var out []Violation
			for _, ci := range t.calls {
				if ci.issued == nil && (len(ci.dones) > 0 || len(ci.accepted) > 0) {
					out = append(out, violation(name,
						"call %v has completions or accepted replies but was never issued", ci.key))
					continue
				}
				if len(ci.dones) > 1 {
					out = append(out, violation(name,
						"call %v reached %d terminal statuses (want at most 1)", ci.key, len(ci.dones)))
				}
				for _, d := range ci.dones {
					switch d.Status {
					case msg.StatusOK, msg.StatusTimeout, msg.StatusAborted:
					default:
						out = append(out, violation(name,
							"call %v completed with non-terminal status %v", ci.key, d.Status))
					}
				}
			}
			// Exec begin/end pairing per (site, incarnation, call).
			for _, site := range t.Sites() {
				open := make(map[siteInc]map[msg.CallKey]int)
				for _, e := range t.SiteEvents(site) {
					si := siteInc{e.Site, e.SiteInc}
					if open[si] == nil {
						open[si] = make(map[msg.CallKey]int)
					}
					switch e.Kind {
					case trace.KExecBegin:
						open[si][e.Key()]++
					case trace.KExecEnd:
						if open[si][e.Key()] <= 0 {
							out = append(out, violation(name,
								"site %d inc %d: exec end without begin for call %v", site, e.SiteInc, e.Key()))
						} else {
							open[si][e.Key()]--
						}
					}
				}
			}
			return out
		},
	}
}

// --- Synchronous/Asynchronous Call: completion ------------------------------

// completionOracle checks that every issued call reaches a terminal status.
// Calls issued by a client incarnation that crashed are exempt (their
// completion died with the client), as are calls issued under an unreliable
// configuration in a lossy run (the network is allowed to eat them; Bounded
// Termination, when configured, is what turns those into TIMEOUT — see
// boundedTerminationOracle).
func completionOracle() Oracle {
	const name = "completion"
	return Oracle{
		Name:     name,
		Property: "Synchronous/Asynchronous Call",
		Applies:  always,
		Check: func(p Profile, t *Trace) []Violation {
			var out []Violation
			for _, k := range t.Calls() {
				ci := t.calls[k]
				if t.ClientIncCrashed(k.Client, trace.CallInc(k.ID)) {
					continue
				}
				cfg := p.ConfigAt(t, ci.issued.Seq)
				if !cfg.Reliable && p.Lossy && !cfg.Bounded {
					continue
				}
				if len(ci.dones) == 0 {
					out = append(out, violation(name,
						"call %v (cfg %s) never reached a terminal status", k, cfg))
				}
			}
			return out
		},
	}
}

// statusValidityOracle checks that terminal statuses are justified: TIMEOUT
// only under Bounded Termination, ABORTED only for calls whose client
// incarnation crashed or calls an unreliable lossy network legitimately
// starved (released at shutdown).
func statusValidityOracle() Oracle {
	const name = "status-validity"
	return Oracle{
		Name:     name,
		Property: "Synchronous/Asynchronous Call",
		Applies:  always,
		Check: func(p Profile, t *Trace) []Violation {
			var out []Violation
			for _, k := range t.Calls() {
				ci := t.calls[k]
				cfg := p.ConfigAt(t, ci.issued.Seq)
				for _, d := range ci.dones {
					switch d.Status {
					case msg.StatusTimeout:
						if !cfg.Bounded {
							out = append(out, violation(name,
								"call %v timed out but its configuration has no bounded termination", k))
						}
					case msg.StatusAborted:
						crashed := t.ClientIncCrashed(k.Client, trace.CallInc(k.ID))
						starved := !cfg.Reliable && p.Lossy
						if !crashed && !starved {
							out = append(out, violation(name,
								"call %v aborted without a client crash or lossy unreliable network", k))
						}
					}
				}
			}
			return out
		},
	}
}

// --- Bounded Termination ----------------------------------------------------

// boundedTerminationOracle checks the §4.4.3 guarantee: a call issued under
// Bounded Termination reaches a terminal status no matter what the network
// does. (The bound itself is wall-clock and not checked — the harness
// asserts termination, not latency.)
func boundedTerminationOracle() Oracle {
	const name = "bounded-termination"
	return Oracle{
		Name:     name,
		Property: "Bounded Termination",
		Applies: func(p Profile, t *Trace) bool {
			for _, c := range p.Configs {
				if c.Bounded {
					return true
				}
			}
			return false
		},
		Check: func(p Profile, t *Trace) []Violation {
			var out []Violation
			for _, k := range t.Calls() {
				ci := t.calls[k]
				if !p.ConfigAt(t, ci.issued.Seq).Bounded {
					continue
				}
				if t.ClientIncCrashed(k.Client, trace.CallInc(k.ID)) {
					continue
				}
				if len(ci.dones) == 0 {
					out = append(out, violation(name,
						"bounded call %v never terminated", k))
				}
			}
			return out
		},
	}
}

// --- Reliable Communication: same set at every member -----------------------

// sameSetOracle checks Figure 2's reliable-communication property: every
// functioning member of the group executes the same set of calls, and that
// set covers every call that completed OK. It applies only to crash-free,
// timeout-free reliable runs — a crash legitimately truncates a member's
// set, and a timed-out call's retransmissions stop mid-spread. It also
// excludes lossy runs of synchronous FIFO configurations: first-arrival
// lane initialization (D10) lets a member that first hears a client
// mid-sequence — because the network withheld the earlier call — judge
// that call already served and discard its retransmission, so the member's
// executed set legitimately misses it (DESIGN.md D15). A reordering
// network erodes the same configurations the same way — the member can
// simply hear call 2 before call 1 — so the gate covers both (D19).
func sameSetOracle() Oracle {
	const name = "same-set"
	return Oracle{
		Name:     name,
		Property: "Reliable Communication",
		Applies: func(p Profile, t *Trace) bool {
			if !p.All(func(c config.Config) bool { return c.Reliable }) ||
				t.HadCrash() || anyTimeout(t) {
				return false
			}
			if p.Lossy || p.Reordering {
				for _, c := range p.Configs {
					if c.Ordering == config.OrderFIFO && c.Call == config.CallSynchronous {
						return false
					}
				}
			}
			return true
		},
		Check: func(p Profile, t *Trace) []Violation {
			var out []Violation
			sets := make(map[msg.ProcID]map[msg.CallKey]bool, len(p.Group))
			for _, site := range p.Group {
				set := make(map[msg.CallKey]bool)
				for _, k := range t.ExecutedKeys(site) {
					set[k] = true
				}
				sets[site] = set
			}
			ref := p.Group[0]
			for _, site := range p.Group[1:] {
				for k := range sets[ref] {
					if !sets[site][k] {
						out = append(out, violation(name,
							"call %v executed at member %d but not at member %d", k, ref, site))
					}
				}
				for k := range sets[site] {
					if !sets[ref][k] {
						out = append(out, violation(name,
							"call %v executed at member %d but not at member %d", k, site, ref))
					}
				}
			}
			for _, k := range t.Calls() {
				ci := t.calls[k]
				ok := false
				for _, d := range ci.dones {
					if d.Status == msg.StatusOK {
						ok = true
					}
				}
				if !ok {
					continue
				}
				for _, site := range p.Group {
					if !sets[site][k] {
						out = append(out, violation(name,
							"call %v completed OK but never executed at member %d", k, site))
					}
				}
			}
			return out
		},
	}
}

// --- Unique Execution: at most once per incarnation -------------------------

// atMostOnceOracle checks §4.4.5's unique-execution property: within one
// server incarnation, no call's procedure begins executing twice. (Across a
// server crash the old-calls table is volatile, so a re-execution in a new
// incarnation is the documented at-least-once residue — the incarnation
// scoping matches the implementation's guarantee.)
func atMostOnceOracle() Oracle {
	const name = "at-most-once"
	return Oracle{
		Name:     name,
		Property: "Unique Execution",
		Applies: func(p Profile, t *Trace) bool {
			return p.All(func(c config.Config) bool { return c.Unique })
		},
		Check: func(p Profile, t *Trace) []Violation {
			var out []Violation
			for _, site := range t.Sites() {
				begun := make(map[siteInc]map[msg.CallKey]int)
				for _, e := range t.SiteEvents(site) {
					if e.Kind != trace.KExecBegin {
						continue
					}
					si := siteInc{e.Site, e.SiteInc}
					if begun[si] == nil {
						begun[si] = make(map[msg.CallKey]int)
					}
					begun[si][e.Key()]++
					if begun[si][e.Key()] == 2 {
						out = append(out, violation(name,
							"site %d inc %d executed call %v more than once", site, e.SiteInc, e.Key()))
					}
				}
			}
			return out
		},
	}
}

// --- Serial Execution: non-overlapping exec intervals -----------------------

// serialExecOracle checks §4.4.5's serial-execution property: within one
// server incarnation, execution intervals never overlap — a begin while
// another call's interval is open is a violation. The serial drain loop
// runs executions on a single goroutine, so the event sequence numbers
// order the intervals faithfully.
func serialExecOracle() Oracle {
	const name = "serial-exec"
	return Oracle{
		Name:     name,
		Property: "Serial Execution",
		Applies: func(p Profile, t *Trace) bool {
			return p.All(func(c config.Config) bool { return c.Execution != config.ExecConcurrent })
		},
		Check: func(p Profile, t *Trace) []Violation {
			var out []Violation
			for _, site := range t.Sites() {
				open := make(map[siteInc]msg.CallKey)
				active := make(map[siteInc]bool)
				for _, e := range t.SiteEvents(site) {
					si := siteInc{e.Site, e.SiteInc}
					switch e.Kind {
					case trace.KExecBegin:
						if active[si] {
							out = append(out, violation(name,
								"site %d inc %d began call %v while call %v was still executing",
								site, e.SiteInc, e.Key(), open[si]))
						}
						active[si] = true
						open[si] = e.Key()
					case trace.KExecEnd:
						active[si] = false
					}
				}
			}
			return out
		},
	}
}

// --- Atomic Execution: a reply implies a completed execution ----------------

// atomicDeliveryOracle checks the delivery face of §4.4.5's atomic
// execution: a reply sent by a server incarnation implies a complete
// begin/end execution interval in that same incarnation before the reply —
// recovery never yields a reply backed by a half-executed (rolled-back)
// call. State-level atomicity (checkpoint restore) is covered by the
// existing atomic-execution crash tests; see DESIGN.md D15.
func atomicDeliveryOracle() Oracle {
	const name = "atomic-delivery"
	return Oracle{
		Name:     name,
		Property: "Atomic Execution",
		Applies: func(p Profile, t *Trace) bool {
			return p.All(func(c config.Config) bool { return c.Execution == config.ExecAtomic })
		},
		Check: func(p Profile, t *Trace) []Violation {
			var out []Violation
			type incKey struct {
				si  siteInc
				key msg.CallKey
			}
			for _, site := range t.Sites() {
				done := make(map[incKey]bool) // completed begin/end pairs
				opened := make(map[incKey]bool)
				for _, e := range t.SiteEvents(site) {
					ik := incKey{siteInc{e.Site, e.SiteInc}, e.Key()}
					switch e.Kind {
					case trace.KExecBegin:
						opened[ik] = true
					case trace.KExecEnd:
						if opened[ik] {
							done[ik] = true
						}
					case trace.KReplySent:
						if !done[ik] {
							out = append(out, violation(name,
								"site %d inc %d replied to call %v without a completed execution in that incarnation",
								site, e.SiteInc, e.Key()))
						}
					}
				}
			}
			return out
		},
	}
}

// --- FIFO Order -------------------------------------------------------------

// fifoOrderOracle checks §2.2's FIFO property: at each server incarnation,
// calls from one client incarnation begin executing in issue order (call
// ids from one incarnation are densely increasing). Causal order subsumes
// FIFO per sender, so the oracle applies to both.
func fifoOrderOracle() Oracle {
	const name = "fifo-order"
	return Oracle{
		Name:     name,
		Property: "FIFO Order",
		Applies: func(p Profile, t *Trace) bool {
			return p.All(func(c config.Config) bool {
				return c.Ordering == config.OrderFIFO || c.Ordering == config.OrderCausal
			})
		},
		Check: func(p Profile, t *Trace) []Violation {
			var out []Violation
			type lane struct {
				si     siteInc
				client msg.ProcID
				cinc   msg.Incarnation
			}
			for _, site := range t.Sites() {
				last := make(map[lane]msg.CallID)
				for _, e := range t.SiteEvents(site) {
					if e.Kind != trace.KExecBegin {
						continue
					}
					l := lane{siteInc{e.Site, e.SiteInc}, e.Client, trace.CallInc(e.ID)}
					if prev, ok := last[l]; ok && e.ID <= prev {
						out = append(out, violation(name,
							"site %d inc %d executed client %d call %d after call %d (FIFO inversion)",
							site, e.SiteInc, e.Client, e.ID, prev))
					}
					if e.ID > last[l] {
						last[l] = e.ID
					}
				}
			}
			return out
		},
	}
}

// --- Total Order ------------------------------------------------------------

// totalOrderOracle checks §2.2's total-order property: any two calls
// executed at two members begin executing in the same relative order at
// both. Each site's execution stream is deduplicated to first occurrences,
// then every pair of streams is checked for an order inversion on their
// common calls.
func totalOrderOracle() Oracle {
	const name = "total-order"
	return Oracle{
		Name:     name,
		Property: "Total Order",
		Applies: func(p Profile, t *Trace) bool {
			return p.All(func(c config.Config) bool { return c.Ordering == config.OrderTotal })
		},
		Check: func(p Profile, t *Trace) []Violation {
			var out []Violation
			sites := t.Sites()
			streams := make(map[msg.ProcID][]msg.CallKey, len(sites))
			for _, s := range sites {
				streams[s] = t.ExecutedKeys(s)
			}
			for i, a := range sites {
				for _, b := range sites[i+1:] {
					pos := make(map[msg.CallKey]int, len(streams[b]))
					for idx, k := range streams[b] {
						pos[k] = idx
					}
					lastIdx := -1
					var lastKey msg.CallKey
					for _, k := range streams[a] {
						idx, ok := pos[k]
						if !ok {
							continue
						}
						if idx < lastIdx {
							out = append(out, violation(name,
								"members %d and %d executed calls %v and %v in opposite orders",
								a, b, lastKey, k))
						}
						if idx > lastIdx {
							lastIdx = idx
							lastKey = k
						}
					}
				}
			}
			return out
		},
	}
}

// --- Causal Order -----------------------------------------------------------

// causalOrderOracle checks the causal-order extension: at each member, if
// call a's issue-time vector clock happens-before call b's, then b does not
// begin executing before a. Issue-time clocks come from the KCallIssued
// events; calls without a clock (issued before Causal Order attached) are
// skipped.
func causalOrderOracle() Oracle {
	const name = "causal-order"
	return Oracle{
		Name:     name,
		Property: "Causal Order",
		Applies: func(p Profile, t *Trace) bool {
			return p.All(func(c config.Config) bool { return c.Ordering == config.OrderCausal })
		},
		Check: func(p Profile, t *Trace) []Violation {
			var out []Violation
			for _, site := range t.Sites() {
				keys := t.ExecutedKeys(site)
				for i, a := range keys {
					va := t.vcOf(a)
					if va == nil {
						continue
					}
					for _, b := range keys[:i] {
						vb := t.vcOf(b)
						if vb == nil {
							continue
						}
						// b executed before a: a must not happen-before b.
						if vcBefore(va, vb) {
							out = append(out, violation(name,
								"member %d executed call %v before causally earlier call %v", site, b, a))
						}
					}
				}
			}
			return out
		},
	}
}

// vcOf returns the issue-time vector clock of a call (nil if unknown).
func (t *Trace) vcOf(k msg.CallKey) msg.VClock {
	ci := t.calls[k]
	if ci == nil || ci.issued == nil {
		return nil
	}
	return ci.issued.VC
}

// vcBefore reports a happens-before b: a ≤ b entry-wise with at least one
// strict inequality.
func vcBefore(a, b msg.VClock) bool {
	strict := false
	for p, n := range a {
		bn := b.Get(p)
		if n > bn {
			return false
		}
		if n < bn {
			strict = true
		}
	}
	for p, n := range b {
		if a.Get(p) < n {
			strict = true
		}
	}
	return strict
}

// --- Acceptance: reply deduplication ----------------------------------------

// replyDedupOracle checks the acceptance bookkeeping of §4.4.5: a call
// folds in at most one reply per group member, and only from members of the
// called group.
func replyDedupOracle() Oracle {
	const name = "reply-dedup"
	return Oracle{
		Name:     name,
		Property: "Acceptance",
		Applies:  always,
		Check: func(p Profile, t *Trace) []Violation {
			var out []Violation
			for _, k := range t.Calls() {
				ci := t.calls[k]
				seen := make(map[msg.ProcID]bool)
				for _, a := range ci.accepted {
					if seen[a.From] {
						out = append(out, violation(name,
							"call %v accepted two replies from member %d", k, a.From))
					}
					seen[a.From] = true
					if !inGroup(p.Group, a.From) {
						out = append(out, violation(name,
							"call %v accepted a reply from %d, not a member of the called group", k, a.From))
					}
				}
			}
			return out
		},
	}
}

// --- Collation: accepted-reply counts ---------------------------------------

// collationCountOracle checks that a call completing OK was handed exactly
// its acceptance threshold of folded replies (min(limit, group size)):
// Acceptance reports a reply accepted only when it counts the folded reply
// while the call still waits, so the count is what the caller got. Crash
// and timeout runs are exempt: a failure can satisfy acceptance without a
// reply, and timeouts complete with fewer.
func collationCountOracle() Oracle {
	const name = "collation-count"
	return Oracle{
		Name:     name,
		Property: "Acceptance/Collation",
		Applies: func(p Profile, t *Trace) bool {
			return !t.HadCrash() && !anyTimeout(t)
		},
		Check: func(p Profile, t *Trace) []Violation {
			var out []Violation
			for _, k := range t.Calls() {
				ci := t.calls[k]
				ok := false
				for _, d := range ci.dones {
					if d.Status == msg.StatusOK {
						ok = true
					}
				}
				if !ok {
					continue
				}
				limit := p.ConfigAt(t, ci.issued.Seq).AcceptanceLimit
				want := limit
				if want > len(p.Group) {
					want = len(p.Group)
				}
				if len(ci.accepted) != want {
					out = append(out, violation(name,
						"call %v completed OK with %d accepted replies (threshold %d)",
						k, len(ci.accepted), want))
				}
			}
			return out
		},
	}
}

// --- Interference Avoidance -------------------------------------------------

// orphanInterferenceOracle checks §4.4.4's interference-avoidance property:
// once a server incarnation has begun executing a call from client
// incarnation i, it never begins a call from an earlier incarnation of the
// same client — orphans of a crashed incarnation are excluded rather than
// interleaved with the recovered client's new calls.
func orphanInterferenceOracle() Oracle {
	const name = "orphan-interference"
	return Oracle{
		Name:     name,
		Property: "Interference Avoidance",
		Applies: func(p Profile, t *Trace) bool {
			return p.All(func(c config.Config) bool { return c.Orphan == config.OrphanAvoidInterference })
		},
		Check: func(p Profile, t *Trace) []Violation {
			var out []Violation
			type lane struct {
				si     siteInc
				client msg.ProcID
			}
			for _, site := range t.Sites() {
				top := make(map[lane]msg.Incarnation)
				for _, e := range t.SiteEvents(site) {
					if e.Kind != trace.KExecBegin {
						continue
					}
					l := lane{siteInc{e.Site, e.SiteInc}, e.Client}
					inc := trace.CallInc(e.ID)
					if prev, ok := top[l]; ok && inc < prev {
						out = append(out, violation(name,
							"site %d inc %d executed call %d from client %d incarnation %d after serving incarnation %d",
							site, e.SiteInc, e.ID, e.Client, inc, prev))
					}
					if inc > top[l] {
						top[l] = inc
					}
				}
			}
			return out
		},
	}
}

// --- Terminate Orphan -------------------------------------------------------

// orphanTerminateOracle checks §4.4.4's extermination property: once a site
// kills a call's computation as an orphan, that site never sends a reply
// for the call — the exterminated computation's effects do not escape.
func orphanTerminateOracle() Oracle {
	const name = "orphan-terminate"
	return Oracle{
		Name:     name,
		Property: "Terminate Orphan",
		Applies: func(p Profile, t *Trace) bool {
			return p.All(func(c config.Config) bool { return c.Orphan == config.OrphanTerminate })
		},
		Check: func(p Profile, t *Trace) []Violation {
			var out []Violation
			for _, site := range t.Sites() {
				killed := make(map[msg.CallKey]bool)
				for _, e := range t.SiteEvents(site) {
					switch e.Kind {
					case trace.KOrphanKilled:
						killed[e.Key()] = true
					case trace.KReplySent:
						if killed[e.Key()] {
							out = append(out, violation(name,
								"site %d sent a reply for call %v after killing it as an orphan", site, e.Key()))
						}
					}
				}
			}
			return out
		},
	}
}

// --- Gray failure: no false suspicion ----------------------------------------

// noFalseSuspicionOracle checks the D19 gray-failure property: a member
// that is merely gray-slow — every message delayed by less than the
// detector's suspicion threshold — must not end the run on any observer's
// suspect list. Heartbeat *gaps* stay at the send interval under a
// constant lag, so an accurate detector never suspects it; an
// asynchronous detector is allowed to be transiently wrong (a scheduler
// stall can open a gap), but a KSuspect with no later KSuspectClear from
// the same observer means the belief stuck: the gray member would be
// excluded from acceptance forever despite functioning. Crashy runs are
// exempt — there real failures race the gray window and suspicion of the
// gray member can be legitimate collateral of partitioned heartbeats.
func noFalseSuspicionOracle() Oracle {
	const name = "no-false-suspicion"
	return Oracle{
		Name:     name,
		Property: "Membership (gray failure)",
		Applies: func(p Profile, t *Trace) bool {
			return len(p.Gray) > 0 && !t.HadCrash()
		},
		Check: func(p Profile, t *Trace) []Violation {
			gray := make(map[msg.ProcID]bool, len(p.Gray))
			for _, g := range p.Gray {
				gray[g] = true
			}
			type belief struct{ observer, suspect msg.ProcID }
			stuck := make(map[belief]bool)
			var order []belief
			for _, e := range t.SuspectEvents() {
				if !gray[e.From] {
					continue
				}
				b := belief{e.Site, e.From}
				switch e.Kind {
				case trace.KSuspect:
					if !stuck[b] {
						stuck[b] = true
						order = append(order, b)
					}
				case trace.KSuspectClear:
					stuck[b] = false
				}
			}
			var out []Violation
			for _, b := range order {
				if stuck[b] {
					out = append(out, violation(name,
						"observer %d left gray-slow member %d stuck suspected (no clear before run end)",
						b.observer, b.suspect))
				}
			}
			return out
		},
	}
}

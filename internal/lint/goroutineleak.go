package lint

import "strings"

// GoroutineLeak enforces the contract of the cluster's runLoop: a
// spawned goroutine that loops unboundedly must have a way to stop —
// a receive on ctx.Done(), a stop channel, or at least some exit path
// out of the loop. A `for {}` with no return/break/panic and no
// channel receive (directly or in anything the loop body calls) runs
// until process death no matter what the caller cancels; every spawn
// of such a body leaks one goroutine per call.
//
// Conservatism: any channel receive counts as a stop path (the check
// cannot prove which channel is the stop channel — a ticker-only loop
// with no ctx.Done() case is a miss, not a false positive), and
// labeled branches or gotos count as exits. Leakiness propagates
// through static calls, so `go n.runLoop(ctx)` is judged by runLoop's
// own body.
type GoroutineLeak struct{}

func (GoroutineLeak) Name() string { return "goroutine-leak" }

func (GoroutineLeak) Doc() string {
	return "spawned goroutines that loop unboundedly with no stop-channel receive or exit path"
}

func (GoroutineLeak) Check(prog *Program, p *Package) []Finding {
	if !inScope(p.Path, serviceScope) {
		return nil
	}
	prog.ensureSummaries()
	var out []Finding
	prog.factsIn(p, func(facts *bodyFacts) {
		for _, g := range facts.gos {
			switch {
			case g.lit != nil:
				lf := prog.litFactsOf(g.lit)
				if lf == nil {
					continue
				}
				if li := prog.leakOfFacts(lf); li != nil {
					msg := "goroutine literal loops forever with no ctx.Done()/stop receive or exit path (goroutine leak)"
					if len(li.chain) > 0 {
						msg = "goroutine literal calls " + strings.Join(li.chain, " -> ") +
							", which loops forever with no ctx.Done()/stop receive or exit path (goroutine leak)"
					}
					out = append(out, finding(p, "goroutine-leak", g.pos, "%s", msg))
				}
			case g.callee != nil:
				if li := prog.leakOf(g.callee); li != nil {
					chain := append([]string{displayName(g.callee)}, li.chain...)
					out = append(out, finding(p, "goroutine-leak", g.pos,
						"goroutine %s loops forever with no ctx.Done()/stop receive or exit path (goroutine leak)",
						strings.Join(chain, " -> ")))
				}
			}
		}
	})
	return out
}

package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netgen"
	"repro/internal/pipeline"
)

// fabricTexts renders a small Clos fabric as hostname → config text.
func fabricTexts(t testing.TB, name string) map[string]string {
	gen := netgen.Fabric(netgen.FabricParams{Name: name, Spines: 2, Pods: 2,
		AggPerPod: 2, TorPerPod: 2, HostNetsPerTor: 1, Multipath: true})
	texts := make(map[string]string, len(gen.Devices))
	for _, dt := range gen.Devices {
		texts[dt.Hostname] = dt.Text
	}
	return texts
}

// addRoute inserts a static route before the trailing "end" so the parser
// sees it inside the config body.
func addRoute(t testing.TB, text, route string) string {
	t.Helper()
	if !strings.HasSuffix(text, "end\n") {
		t.Fatal("config text does not end with 'end'")
	}
	return strings.TrimSuffix(text, "end\n") + route + "\nend\n"
}

func tracesOf(fr FlowResult) string {
	var b strings.Builder
	for _, tr := range fr.Traces {
		b.WriteString(tr.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestIncrementalEquivalence is the acceptance check for the edit loop:
// after editing one ToR (null-routing half of another ToR's host subnet,
// which breaks delivered flows), the edited snapshot of a warm caching
// pipeline must produce byte-identical Fingerprint, Reachability, and
// CompareWith outputs to (a) a full same-pipeline load of the merged
// texts — compared down to the BDD refs, which are canonical within one
// encoder — and (b) a fresh run with caching disabled, compared on every
// derived value.
func TestIncrementalEquivalence(t *testing.T) {
	baseTexts := fabricTexts(t, "eq")
	const editedTor = "eq-p02-tor02"
	if _, ok := baseTexts[editedTor]; !ok {
		t.Fatalf("no device %s in %v", editedTor, len(baseTexts))
	}
	// The first ToR's host net is 10.0.0.0/24; blackholing its lower half
	// on another pod's ToR breaks delivered flows from that ToR's hosts.
	afterTexts := make(map[string]string, len(baseTexts))
	for k, v := range baseTexts {
		afterTexts[k] = v
	}
	afterTexts[editedTor] = addRoute(t, baseTexts[editedTor],
		"ip route 10.0.0.0 255.255.255.128 Null0")

	// Cached pipeline: load, warm the baseline, then edit.
	pl := pipeline.New(pipeline.Config{})
	base := LoadTextWith(pl, baseTexts)
	baseFlows := base.Reachability(ReachabilityParams{})
	if len(baseFlows) == 0 {
		t.Fatal("no host-facing flows in baseline")
	}
	after := base.Edit(map[string]string{editedTor: afterTexts[editedTor]})
	incFlows := after.Reachability(ReachabilityParams{})
	incDiffs := base.CompareWith(after)
	if len(incDiffs) == 0 {
		t.Fatal("blackholing a served subnet must break flows")
	}

	// (a) Full recomputation on the same pipeline: identical BDD refs.
	full := LoadTextWith(pl, afterTexts)
	fullFlows := full.Reachability(ReachabilityParams{})
	if len(incFlows) != len(fullFlows) {
		t.Fatalf("flow count: edited %d vs full %d", len(incFlows), len(fullFlows))
	}
	for i := range incFlows {
		a, b := incFlows[i], fullFlows[i]
		if a.Source != b.Source {
			t.Fatalf("flow %d source %v vs %v", i, a.Source, b.Source)
		}
		if a.Delivered != b.Delivered || a.Failed != b.Failed {
			t.Errorf("%v: sets differ (delivered %v vs %v, failed %v vs %v)",
				a.Source, a.Delivered, b.Delivered, a.Failed, b.Failed)
		}
		if a.HasPositive != b.HasPositive || a.PositiveExample != b.PositiveExample {
			t.Errorf("%v: positive example differs", a.Source)
		}
		if a.HasNegative != b.HasNegative || a.NegativeExample != b.NegativeExample {
			t.Errorf("%v: negative example differs", a.Source)
		}
		if tracesOf(a) != tracesOf(b) {
			t.Errorf("%v: traces differ:\n%s\nvs\n%s", a.Source, tracesOf(a), tracesOf(b))
		}
	}
	fullDiffs := base.CompareWith(full)
	if len(incDiffs) != len(fullDiffs) {
		t.Fatalf("diff rows: edited %d vs full %d", len(incDiffs), len(fullDiffs))
	}
	for i := range incDiffs {
		a, b := incDiffs[i], fullDiffs[i]
		if a.Source != b.Source || a.Broken != b.Broken || a.NewlyArrive != b.NewlyArrive ||
			a.HasBroken != b.HasBroken || a.BrokenEx != b.BrokenEx {
			t.Errorf("diff row %d differs: %+v vs %+v", i, a, b)
		}
	}

	// (b) Caching disabled entirely: every derived value must match.
	refBase := LoadTextWith(pipeline.Disabled(), baseTexts)
	refAfter := LoadTextWith(pipeline.Disabled(), afterTexts)
	if got, want := after.DataPlane().Fingerprint(), refAfter.DataPlane().Fingerprint(); got != want {
		t.Errorf("after fingerprint %x != reference %x", got, want)
	}
	if got, want := base.DataPlane().Fingerprint(), refBase.DataPlane().Fingerprint(); got != want {
		t.Errorf("base fingerprint %x != reference %x", got, want)
	}
	refFlows := refAfter.Reachability(ReachabilityParams{})
	if len(refFlows) != len(incFlows) {
		t.Fatalf("flow count vs disabled reference: %d vs %d", len(incFlows), len(refFlows))
	}
	for i := range incFlows {
		a, b := incFlows[i], refFlows[i]
		if a.Source != b.Source || a.HasPositive != b.HasPositive ||
			a.PositiveExample != b.PositiveExample ||
			a.HasNegative != b.HasNegative || a.NegativeExample != b.NegativeExample {
			t.Errorf("%v: differs from cache-disabled reference", a.Source)
		}
		if tracesOf(a) != tracesOf(b) {
			t.Errorf("%v: traces differ from cache-disabled reference", a.Source)
		}
	}
	refDiffs := refBase.CompareWith(refAfter)
	if len(refDiffs) != len(incDiffs) {
		t.Fatalf("diff rows vs disabled reference: %d vs %d", len(incDiffs), len(refDiffs))
	}
	for i := range incDiffs {
		a, b := incDiffs[i], refDiffs[i]
		if a.Source != b.Source || a.HasBroken != b.HasBroken || a.BrokenEx != b.BrokenEx {
			t.Errorf("diff row %d differs from cache-disabled reference: %+v vs %+v", i, a, b)
		}
	}
}

// TestEditSemantics covers the overlay rules of Snapshot.Edit: replaced
// texts re-parse, untouched devices share the cached model, and an empty
// string removes the device.
func TestEditSemantics(t *testing.T) {
	pl := pipeline.New(pipeline.Config{})
	texts := fabricTexts(t, "ed")
	s := LoadTextWith(pl, texts)
	const tor = "ed-p01-tor01"
	after := s.Edit(map[string]string{tor: addRoute(t, texts[tor],
		"ip route 203.0.113.0 255.255.255.0 Null0")})
	if after.Pipeline() != pl {
		t.Fatal("Edit must keep the pipeline")
	}
	if after.Net.Devices[tor] == s.Net.Devices[tor] {
		t.Error("edited device model must be re-parsed")
	}
	for name := range s.Net.Devices {
		if name == tor {
			continue
		}
		if after.Net.Devices[name] != s.Net.Devices[name] {
			t.Errorf("unchanged device %s was re-parsed", name)
		}
	}
	removed := s.Edit(map[string]string{tor: ""})
	if _, ok := removed.Net.Devices[tor]; ok {
		t.Error("empty-string edit must remove the device")
	}
	if len(removed.Net.Devices) != len(s.Net.Devices)-1 {
		t.Errorf("device count after removal: %d", len(removed.Net.Devices))
	}
}

// TestCompareWithNoopEdit: an edit that changes bytes but not behavior
// (a comment-like no-op) produces no diff rows and an unchanged data
// plane.
func TestCompareWithNoopEdit(t *testing.T) {
	pl := pipeline.New(pipeline.Config{})
	texts := fabricTexts(t, "np")
	s := LoadTextWith(pl, texts)
	s.Reachability(ReachabilityParams{})
	const tor = "np-p01-tor02"
	after := s.Edit(map[string]string{tor: "!\n" + texts[tor]})
	if diffs := s.CompareWith(after); len(diffs) != 0 {
		t.Errorf("no-op edit produced diffs: %v", diffs)
	}
	if got, want := after.DataPlane().Fingerprint(), s.DataPlane().Fingerprint(); got != want {
		t.Errorf("no-op edit changed the fingerprint: %x vs %x", got, want)
	}
}

func TestServiceQuestionsUseMemo(t *testing.T) {
	// Repeated identical questions must hit the per-snapshot memo (the
	// second call does no BDD propagation; we just check stability).
	pl := pipeline.New(pipeline.Config{})
	s := LoadTextWith(pl, fabricTexts(t, "sm"))
	r1 := s.Reachability(ReachabilityParams{})
	r2 := s.Reachability(ReachabilityParams{})
	if fmt.Sprint(r1) != fmt.Sprint(r2) {
		t.Error("repeated Reachability not stable")
	}
}

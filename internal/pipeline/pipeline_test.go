package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/ip4"
)

func TestStoreLRUAndCounters(t *testing.T) {
	s := NewStore(2)
	k1 := keyOf([]byte("a"))
	k2 := keyOf([]byte("b"))
	k3 := keyOf([]byte("c"))
	if _, ok := s.Get(k1); ok {
		t.Fatal("empty store hit")
	}
	s.Put(k1, 1)
	s.Put(k2, 2)
	if v, ok := s.Get(k1); !ok || v.(int) != 1 {
		t.Fatalf("k1 = %v, %v", v, ok)
	}
	// k2 is now least recently used; k3 evicts it.
	s.Put(k3, 3)
	if _, ok := s.Get(k2); ok {
		t.Error("k2 should have been evicted")
	}
	if _, ok := s.Get(k1); !ok {
		t.Error("k1 should have survived (recently used)")
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Refreshing an existing key must not evict.
	s.Put(k1, 10)
	if v, _ := s.Get(k1); v.(int) != 10 {
		t.Error("refresh did not update value")
	}
	if s.Stats().Entries != 2 {
		t.Errorf("refresh changed entry count: %+v", s.Stats())
	}
}

func TestKeyOfSeparatesSections(t *testing.T) {
	if keyOf([]byte("ab"), []byte("c")) == keyOf([]byte("a"), []byte("bc")) {
		t.Error("section aliasing")
	}
	if keyOf([]byte("x")).IsZero() {
		t.Error("real key reads as zero")
	}
	if !(Key{}).IsZero() {
		t.Error("zero key not detected")
	}
}

func testTexts() map[string]string {
	return map[string]string{
		"a.cfg": "hostname a\ninterface e0\n ip address 10.0.0.1 255.255.255.252\n ip ospf area 0\nrouter ospf 1\n",
		"b.cfg": "hostname b\ninterface e0\n ip address 10.0.0.2 255.255.255.252\n ip ospf area 0\nrouter ospf 1\n",
	}
}

func TestIdenticalSnapshotsDedupeAllStages(t *testing.T) {
	p := New(Config{})
	texts := testTexts()

	net1, _, keys1 := p.Parse(texts)
	dp1, dpk1 := p.DataPlane(net1, keys1, dataplane.Options{})
	g1, gk1 := p.Graph(dp1, dpk1)
	a1, _ := p.Analysis(g1, gk1)

	net2, _, keys2 := p.Parse(texts)
	dp2, dpk2 := p.DataPlane(net2, keys2, dataplane.Options{})
	g2, gk2 := p.Graph(dp2, dpk2)
	a2, _ := p.Analysis(g2, gk2)

	for name, k := range keys1 {
		if keys2[name] != k {
			t.Errorf("device %s key changed across identical loads", name)
		}
	}
	// Artifact identity, not just equality: the second run must reuse the
	// first run's parsed devices, data plane, graph, and analysis.
	for name, d := range net1.Devices {
		if net2.Devices[name] != d {
			t.Errorf("device %s re-parsed instead of reused", name)
		}
	}
	if dp1 != dp2 || dpk1 != dpk2 {
		t.Error("data plane not deduped")
	}
	if g1 != g2 || gk1 != gk2 {
		t.Error("graph not deduped")
	}
	if a1 != a2 {
		t.Error("analysis not deduped")
	}
	st := p.Stats()
	if st.Store.Hits == 0 || st.Store.Evictions != 0 {
		t.Errorf("store stats = %+v", st.Store)
	}
	if st.DataPlane.ColdRuns != 1 || st.DataPlane.WarmRuns != 1 {
		t.Errorf("dp stage times = %+v", st.DataPlane)
	}
	if st.Parse.ColdRuns != 1 || st.Parse.WarmRuns != 1 {
		t.Errorf("parse stage times = %+v", st.Parse)
	}
}

func TestSharedConfigsReuseParsedModels(t *testing.T) {
	p := New(Config{})
	texts := testTexts()
	net1, _, keys1 := p.Parse(texts)

	changed := testTexts()
	changed["b.cfg"] += "ip route 192.0.2.0 255.255.255.0 Null0\n"
	net2, _, keys2 := p.Parse(changed)

	if keys1["a"] != keys2["a"] {
		t.Error("unchanged device got a new key")
	}
	if net1.Devices["a"] != net2.Devices["a"] {
		t.Error("unchanged device was re-parsed")
	}
	if keys1["b"] == keys2["b"] {
		t.Error("edited device kept its key")
	}
	if net1.Devices["b"] == net2.Devices["b"] {
		t.Error("edited device model was reused")
	}
}

func TestParallelParseDeterminism(t *testing.T) {
	texts := make(map[string]string)
	for i := 0; i < 40; i++ {
		texts[fmt.Sprintf("r%02d.cfg", i)] = fmt.Sprintf(
			"hostname r%02d\ninterface e0\n ip address 10.0.%d.1 255.255.255.0\n", i, i)
	}
	serial := New(Config{ParseWorkers: -1})
	parallel := New(Config{ParseWorkers: 8})
	netS, warnS, keysS := serial.Parse(texts)
	netP, warnP, keysP := parallel.Parse(texts)
	if len(netS.Devices) != 40 || len(netP.Devices) != 40 {
		t.Fatalf("device counts: %d vs %d", len(netS.Devices), len(netP.Devices))
	}
	nsS, nsP := netS.DeviceNames(), netP.DeviceNames()
	for i := range nsS {
		if nsS[i] != nsP[i] {
			t.Fatalf("device order differs at %d: %s vs %s", i, nsS[i], nsP[i])
		}
	}
	if len(warnS) != len(warnP) {
		t.Errorf("warning counts differ: %d vs %d", len(warnS), len(warnP))
	}
	for n, k := range keysS {
		if keysP[n] != k {
			t.Errorf("key for %s differs across worker counts", n)
		}
	}
}

func TestDataPlaneKeyIgnoresParallelism(t *testing.T) {
	p := New(Config{})
	net, _, keys := p.Parse(testTexts())
	k1 := DataPlaneKey(net, keys, dataplane.Options{Parallelism: 1})
	k8 := DataPlaneKey(net, keys, dataplane.Options{Parallelism: 8})
	if k1 != k8 {
		t.Error("Parallelism must not affect the dp key (results are deterministic)")
	}
	kOther := DataPlaneKey(net, keys, dataplane.Options{MaxIterations: 7})
	if kOther == k1 {
		t.Error("MaxIterations must affect the dp key")
	}
	if !DataPlaneKey(net, map[string]Key{}, dataplane.Options{}).IsZero() {
		t.Error("missing device keys must disable caching (zero key)")
	}
}

func TestDisabledPipelineNeverCaches(t *testing.T) {
	p := Disabled()
	if p.Enabled() {
		t.Fatal("Disabled() reports enabled")
	}
	texts := testTexts()
	net1, _, _ := p.Parse(texts)
	net2, _, _ := p.Parse(texts)
	if net1.Devices["a"] == net2.Devices["a"] {
		t.Error("disabled pipeline reused a parsed model")
	}
	dp1, k := p.DataPlane(net1, nil, dataplane.Options{})
	if !k.IsZero() {
		t.Error("disabled pipeline issued a dp key")
	}
	g1, _ := p.Graph(dp1, k)
	g2, _ := p.Graph(dp1, k)
	if g1 == g2 {
		t.Error("disabled pipeline reused a graph")
	}
	// One encoder per pipeline, not per graph: two graphs of one
	// Disabled() share it, two Disabled() pipelines do not.
	if g1.Enc != g2.Enc {
		t.Error("graphs of one disabled pipeline must share its encoder")
	}
	if g3, _ := Disabled().Graph(dp1, k); g3.Enc == g1.Enc {
		t.Error("two disabled pipelines share an encoder")
	}
	if st := p.Stats().Store; st != (StoreStats{}) {
		t.Errorf("disabled pipeline store stats %+v, want zero", st)
	}
}

func TestDataPlaneKeySuppression(t *testing.T) {
	p := New(Config{})
	net, _, keys := p.Parse(testTexts())
	base := DataPlaneKey(net, keys, dataplane.Options{})
	// An empty suppression must leave the key byte-identical: pre-scenario
	// caches (memory and disk) stay valid across this change.
	empty := DataPlaneKey(net, keys, dataplane.Options{Suppress: dataplane.Suppression{}})
	if empty != base {
		t.Error("empty suppression changed the dp key")
	}
	sup := dataplane.Suppression{Nodes: []string{"a"}}
	k1 := DataPlaneKey(net, keys, dataplane.Options{Suppress: sup})
	if k1 == base {
		t.Error("suppression must affect the dp key")
	}
	// Equivalent non-canonical forms key identically.
	k2 := DataPlaneKey(net, keys, dataplane.Options{Suppress: dataplane.Suppression{Nodes: []string{"a", "a"}}})
	if k2 != k1 {
		t.Error("canonically equal suppressions keyed differently")
	}
}

func TestDataPlaneKeyScope(t *testing.T) {
	// The unscoped options string is pinned byte for byte: warm memory and
	// disk caches of full runs stay valid.
	if got, want := string(dpOptionsKey(dataplane.Options{Scope: dataplane.Scope{}})),
		"sched=0;maxiter=0;noclocks=false;fullconv=false"; got != want {
		t.Errorf("unscoped options key %q, want %q", got, want)
	}
	p := New(Config{})
	net, _, keys := p.Parse(testTexts())
	key := func(q ...string) Key {
		var s dataplane.Scope
		for _, x := range q {
			s = append(s, ip4.MustParsePrefix(x))
		}
		return DataPlaneKey(net, keys, dataplane.Options{Scope: s})
	}
	full := key()
	scoped := key("10.1.0.0/24", "192.168.0.0/16")
	if scoped == full {
		t.Error("a scoped key equals the full key")
	}
	// Permuted, duplicated and unmasked forms of one scope key identically.
	if k := key("192.168.7.7/16", "10.1.0.0/24", "10.1.0.0/24"); k != scoped {
		t.Error("canonically equal scopes keyed differently")
	}
	if k := key("10.1.0.0/24"); k == scoped || k == full {
		t.Error("a different scope shares a key")
	}
	// Scope and suppression both key.
	sup := dataplane.Options{Suppress: dataplane.Suppression{Nodes: []string{"a"}}}
	both := sup
	both.Scope = dataplane.Scope{ip4.MustParsePrefix("10.1.0.0/24")}
	if DataPlaneKey(net, keys, both) == DataPlaneKey(net, keys, sup) {
		t.Error("scope ignored next to a suppression")
	}
}

package policy

import (
	"testing"

	"repro/internal/config"
	"repro/internal/ip4"
	"repro/internal/routing"
)

func env() Env {
	return Env{Device: config.NewDevice("r1", "vi"), Pool: routing.NewPool()}
}

func TestEmptyNamePermits(t *testing.T) {
	e := env()
	v := View{Prefix: ip4.MustParsePrefix("10.0.0.0/8")}
	if r := e.Eval("", &v); !r.Permit {
		t.Error("empty policy name must permit")
	}
}

func TestUndefinedRouteMapPermitsUnchanged(t *testing.T) {
	e := env()
	v := View{Prefix: ip4.MustParsePrefix("10.0.0.0/8"), LocalPref: 100}
	r := e.Eval("nonexistent", &v)
	if !r.Permit || v.LocalPref != 100 {
		t.Error("undefined route map must permit unchanged (modeled Lesson 3 choice)")
	}
}

func TestEmptyRouteMapDenies(t *testing.T) {
	e := env()
	e.Device.RouteMaps["empty"] = &config.RouteMap{Name: "empty"}
	v := View{}
	if r := e.Eval("empty", &v); r.Permit {
		t.Error("route map with no clauses must deny (implicit deny)")
	}
}

func TestPrefixListMatchAndSet(t *testing.T) {
	e := env()
	e.Device.PrefixLists["pl"] = &config.PrefixList{Name: "pl", Entries: []config.PrefixListEntry{
		{Seq: 10, Action: config.Permit, Prefix: ip4.MustParsePrefix("10.0.0.0/8"), Ge: 24, Le: 28},
	}}
	e.Device.RouteMaps["rm"] = &config.RouteMap{Name: "rm", Clauses: []config.RouteMapClause{
		{Seq: 10, Action: config.Permit,
			Matches: []config.Match{{Kind: config.MatchPrefixList, Name: "pl"}},
			Sets:    []config.Set{{Kind: config.SetLocalPref, Value: 200}}},
	}}
	hit := View{Prefix: ip4.MustParsePrefix("10.1.2.0/24")}
	if r := e.Eval("rm", &hit); !r.Permit || hit.LocalPref != 200 || r.MatchedClause != 10 {
		t.Errorf("matching prefix not permitted/set: %+v %+v", r, hit)
	}
	missLen := View{Prefix: ip4.MustParsePrefix("10.0.0.0/8")} // len 8 < ge 24
	if r := e.Eval("rm", &missLen); r.Permit {
		t.Error("prefix outside ge/le must fall to implicit deny")
	}
	missNet := View{Prefix: ip4.MustParsePrefix("11.0.0.0/24")}
	if r := e.Eval("rm", &missNet); r.Permit {
		t.Error("prefix outside network must be denied")
	}
}

func TestPrefixListEntrySemantics(t *testing.T) {
	p8 := ip4.MustParsePrefix("10.0.0.0/8")
	cases := []struct {
		e    config.PrefixListEntry
		in   string
		want bool
	}{
		{config.PrefixListEntry{Prefix: p8}, "10.0.0.0/8", true},
		{config.PrefixListEntry{Prefix: p8}, "10.1.0.0/16", false}, // exact only
		{config.PrefixListEntry{Prefix: p8, Ge: 16}, "10.1.0.0/16", true},
		{config.PrefixListEntry{Prefix: p8, Ge: 16}, "10.1.2.3/32", true},
		{config.PrefixListEntry{Prefix: p8, Le: 16}, "10.1.0.0/16", true},
		{config.PrefixListEntry{Prefix: p8, Le: 16}, "10.1.1.0/24", false},
		{config.PrefixListEntry{Prefix: p8, Ge: 15, Le: 17}, "10.1.0.0/16", true},
		{config.PrefixListEntry{Prefix: p8, Ge: 15, Le: 17}, "10.0.0.0/8", false},
	}
	for i, c := range cases {
		if got := c.e.Matches(ip4.MustParsePrefix(c.in)); got != c.want {
			t.Errorf("case %d: Matches(%s) = %v, want %v", i, c.in, got, c.want)
		}
	}
}

func TestFirstMatchOrder(t *testing.T) {
	e := env()
	e.Device.PrefixLists["all"] = &config.PrefixList{Name: "all", Entries: []config.PrefixListEntry{
		{Action: config.Permit, Prefix: ip4.MustParsePrefix("0.0.0.0/0"), Le: 32},
	}}
	e.Device.RouteMaps["rm"] = &config.RouteMap{Name: "rm", Clauses: []config.RouteMapClause{
		{Seq: 10, Action: config.Deny, Matches: []config.Match{{Kind: config.MatchTag, Value: 7}}},
		{Seq: 20, Action: config.Permit, Matches: []config.Match{{Kind: config.MatchPrefixList, Name: "all"}}},
	}}
	tagged := View{Prefix: ip4.MustParsePrefix("10.0.0.0/8"), Tag: 7}
	if r := e.Eval("rm", &tagged); r.Permit || r.MatchedClause != 10 {
		t.Errorf("deny clause should match first: %+v", r)
	}
	untagged := View{Prefix: ip4.MustParsePrefix("10.0.0.0/8"), Tag: 1}
	if r := e.Eval("rm", &untagged); !r.Permit || r.MatchedClause != 20 {
		t.Errorf("fallthrough to permit failed: %+v", r)
	}
}

func TestASPathRegex(t *testing.T) {
	e := env()
	e.Device.ASPathLists["no-transit"] = &config.ASPathList{Name: "no-transit", Entries: []config.RegexEntry{
		{Action: config.Permit, Regex: "_65010_"},
	}}
	e.Device.RouteMaps["rm"] = &config.RouteMap{Name: "rm", Clauses: []config.RouteMapClause{
		{Seq: 10, Action: config.Deny, Matches: []config.Match{{Kind: config.MatchASPathList, Name: "no-transit"}}},
		{Seq: 20, Action: config.Permit},
	}}
	through := View{ASPath: e.Pool.ASPath(65001, 65010, 65002)}
	if r := e.Eval("rm", &through); r.Permit {
		t.Error("path through 65010 should be denied")
	}
	clean := View{ASPath: e.Pool.ASPath(65001, 65002)}
	if r := e.Eval("rm", &clean); !r.Permit {
		t.Error("clean path should be permitted")
	}
	// "_65010_" must not match 165010 or 650101.
	similar := View{ASPath: e.Pool.ASPath(165010)}
	if r := e.Eval("rm", &similar); !r.Permit {
		t.Error("regex _65010_ must not match 165010")
	}
}

func TestCommunityListRegex(t *testing.T) {
	e := env()
	e.Device.CommunityLists["cust"] = &config.CommunityList{Name: "cust", Entries: []config.RegexEntry{
		{Action: config.Deny, Regex: "^65000:66$"},
		{Action: config.Permit, Regex: "^65000:"},
	}}
	e.Device.RouteMaps["rm"] = &config.RouteMap{Name: "rm", Clauses: []config.RouteMapClause{
		{Seq: 10, Action: config.Permit, Matches: []config.Match{{Kind: config.MatchCommunityList, Name: "cust"}},
			Sets: []config.Set{{Kind: config.SetLocalPref, Value: 300}}},
		{Seq: 20, Action: config.Permit},
	}}
	v := View{Communities: e.Pool.CommunitySet(65000<<16 | 100)}
	if r := e.Eval("rm", &v); r.MatchedClause != 10 || v.LocalPref != 300 {
		t.Errorf("community match failed: %+v lp=%d", r, v.LocalPref)
	}
	blocked := View{Communities: e.Pool.CommunitySet(65000<<16 | 66)}
	if r := e.Eval("rm", &blocked); r.MatchedClause != 20 {
		t.Errorf("deny entry in list should prevent clause 10 match: %+v", r)
	}
}

func TestSetsApplyInOrder(t *testing.T) {
	e := env()
	e.Device.RouteMaps["rm"] = &config.RouteMap{Name: "rm", Clauses: []config.RouteMapClause{
		{Seq: 10, Action: config.Permit, Sets: []config.Set{
			{Kind: config.SetMetric, Value: 100},
			{Kind: config.SetMetricAdd, Value: 50}, // arithmetic (Lesson 1)
			{Kind: config.SetCommunityAdditive, Communities: []uint32{65000<<16 | 1}},
			{Kind: config.SetASPathPrepend, PrependASN: 65099, PrependN: 2},
			{Kind: config.SetWeight, Value: 40},
			{Kind: config.SetTag, Value: 9},
			{Kind: config.SetOriginIncomplete},
			{Kind: config.SetNextHop, NextHop: ip4.MustParseAddr("192.0.2.1")},
		}},
	}}
	v := View{
		ASPath:      e.Pool.ASPath(65001),
		Communities: e.Pool.CommunitySet(65000<<16 | 2),
		Origin:      routing.OriginIGP,
	}
	if r := e.Eval("rm", &v); !r.Permit {
		t.Fatal("should permit")
	}
	if v.Metric != 150 {
		t.Errorf("metric arithmetic wrong: %d", v.Metric)
	}
	if v.Communities.Len() != 2 || !v.Communities.Has(65000<<16|1) || !v.Communities.Has(65000<<16|2) {
		t.Errorf("additive community wrong: %v", v.Communities)
	}
	if v.ASPath.String() != "65099 65099 65001" {
		t.Errorf("prepend wrong: %s", v.ASPath)
	}
	if v.Weight != 40 || v.Tag != 9 || v.Origin != routing.OriginIncomplete {
		t.Errorf("misc sets wrong: %+v", v)
	}
	if v.NextHop != ip4.MustParseAddr("192.0.2.1") {
		t.Errorf("next hop not set")
	}
}

func TestSetCommunityReplace(t *testing.T) {
	e := env()
	e.Device.RouteMaps["rm"] = &config.RouteMap{Name: "rm", Clauses: []config.RouteMapClause{
		{Seq: 10, Action: config.Permit, Sets: []config.Set{
			{Kind: config.SetCommunity, Communities: []uint32{1, 2}},
		}},
	}}
	v := View{Communities: e.Pool.CommunitySet(99)}
	e.Eval("rm", &v)
	if v.Communities.Has(99) || v.Communities.Len() != 2 {
		t.Errorf("replace semantics wrong: %v", v.Communities.Values())
	}
}

func TestMatchSourceProtocol(t *testing.T) {
	e := env()
	e.Device.RouteMaps["rm"] = &config.RouteMap{Name: "rm", Clauses: []config.RouteMapClause{
		{Seq: 10, Action: config.Permit, Matches: []config.Match{{Kind: config.MatchSourceProtocol, Proto: "connected"}}},
	}}
	conn := View{SrcProtocol: routing.Connected}
	if r := e.Eval("rm", &conn); !r.Permit {
		t.Error("connected should match")
	}
	st := View{SrcProtocol: routing.Static}
	if r := e.Eval("rm", &st); r.Permit {
		t.Error("static should not match connected")
	}
}

func TestUndefinedPrefixListMatchesNothing(t *testing.T) {
	e := env()
	e.Device.RouteMaps["rm"] = &config.RouteMap{Name: "rm", Clauses: []config.RouteMapClause{
		{Seq: 10, Action: config.Permit, Matches: []config.Match{{Kind: config.MatchPrefixList, Name: "ghost"}}},
	}}
	v := View{Prefix: ip4.MustParsePrefix("10.0.0.0/8")}
	if r := e.Eval("rm", &v); r.Permit {
		t.Error("clause with undefined prefix list must not match")
	}
}

func TestViewOfRoundTrip(t *testing.T) {
	pool := routing.NewPool()
	r := routing.Route{
		Prefix: ip4.MustParsePrefix("10.0.0.0/8"), Protocol: routing.EBGP,
		Metric: 5, Tag: 3, NextHop: ip4.MustParseAddr("1.1.1.1"),
		Attrs: pool.Attrs(&routing.BGPAttrs{
			LocalPref: 150, MED: 5, Weight: 7, Origin: routing.OriginEGP,
			ASPath: pool.ASPath(1, 2), Communities: pool.CommunitySet(3),
		}),
	}
	v := ViewOf(r)
	if v.LocalPref != 150 || v.MED != 5 || v.Weight != 7 || v.Origin != routing.OriginEGP ||
		v.ASPath.Len() != 2 || !v.Communities.Has(3) || v.SrcProtocol != routing.EBGP {
		t.Errorf("ViewOf dropped attributes: %+v", v)
	}
	nonBGP := routing.Route{Prefix: ip4.MustParsePrefix("10.0.0.0/8"), Protocol: routing.OSPF, Metric: 10}
	v2 := ViewOf(nonBGP)
	if v2.Metric != 10 || v2.LocalPref != 0 {
		t.Errorf("non-BGP view wrong: %+v", v2)
	}
}

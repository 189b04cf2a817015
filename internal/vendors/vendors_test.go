package vendors

import "testing"

const iosA = `
hostname r1
interface eth0
 ip address 10.0.0.1 255.255.255.252
`

const junosB = `
set system host-name r2
set interfaces ge-0/0/0 unit 0 family inet address 10.0.0.2/30
`

func TestDetectDialect(t *testing.T) {
	if DetectDialect(iosA) != "ios" {
		t.Error("iosA misdetected")
	}
	if DetectDialect(junosB) != "junos" {
		t.Error("junosB misdetected")
	}
	if DetectDialect("# comment\nset system host-name x\n") != "junos" {
		t.Error("comment prefix misdetected")
	}
}

func TestDetectDialectEdgeCases(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"empty", "", "ios"},
		{"whitespace only", "  \n\t\n", "ios"},
		{"comment only hash", "# nothing here\n# still nothing\n", "ios"},
		{"comment only bang", "! cisco comment\n!\n", "ios"},
		{"junos after comments", "# header\n!\nset system host-name x\n", "junos"},
		{"ios after comments", "!\nhostname x\n", "ios"},
		{"set requires space", "settings here\n", "ios"},
	}
	for _, c := range cases {
		if got := DetectDialect(c.text); got != c.want {
			t.Errorf("%s: DetectDialect = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestParseDispatchAndHostnameFallback(t *testing.T) {
	cases := []struct {
		name, text, wantHost, wantVendor string
	}{
		{"r1.cfg", iosA, "r1", "ios"},
		{"r2.cfg", junosB, "r2", "junos"},
		{"dir/edge-7.conf", "interface eth0\n", "edge-7", "ios"},
		{"core9.txt", "set interfaces ge-0/0/0 unit 0 family inet address 10.0.0.1/30\n", "core9", "junos"},
	}
	for _, c := range cases {
		d, _ := Parse(c.name, c.text)
		if d.Hostname != c.wantHost || d.Vendor != c.wantVendor {
			t.Errorf("%s: hostname %q vendor %q, want %q %q", c.name, d.Hostname, d.Vendor, c.wantHost, c.wantVendor)
		}
	}
}

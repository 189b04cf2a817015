package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadTextEmptyAndCommentOnlyFiles(t *testing.T) {
	s := LoadText(map[string]string{
		"empty.cfg":    "",
		"comments.cfg": "! nothing but commentary\n!\n",
	})
	// Both parse to (empty) devices named after the file, rather than
	// crashing or being dropped silently.
	names := s.Net.DeviceNames()
	if len(names) != 2 || names[0] != "comments" || names[1] != "empty" {
		t.Fatalf("devices = %v", names)
	}
	for _, n := range names {
		if len(s.Net.Devices[n].Interfaces) != 0 {
			t.Errorf("%s: unexpected interfaces", n)
		}
	}
}

func TestLoadDirMixedDialects(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "r1.cfg"), []byte(iosA), 0o644)
	os.WriteFile(filepath.Join(dir, "r2.conf"), []byte(junosB), 0o644)
	s, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Each file must have gone through its own dialect's parser.
	r1, r2 := s.Net.Devices["r1"], s.Net.Devices["r2"]
	if r1 == nil || r2 == nil {
		t.Fatalf("devices = %v", s.Net.DeviceNames())
	}
	if _, ok := r1.Interfaces["eth0"]; !ok {
		t.Error("r1 (IOS) missing eth0")
	}
	if _, ok := r2.Interfaces["ge-0/0/0"]; !ok {
		t.Error("r2 (Junos) missing ge-0/0/0")
	}
}

func TestLoadDirUnreadableFileReportsError(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "good.cfg"), []byte(iosA), 0o644)
	// A dangling symlink with a config extension: ReadFile fails even for
	// root, and the loader must surface the error instead of silently
	// analyzing a partial snapshot.
	if err := os.Symlink(filepath.Join(dir, "missing-target"),
		filepath.Join(dir, "broken.cfg")); err != nil {
		t.Skipf("symlink: %v", err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("unreadable file must be reported, not swallowed")
	} else if !strings.Contains(err.Error(), "broken.cfg") {
		t.Errorf("error does not name the unreadable file: %v", err)
	}
}

package lint_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// The golden corpus: each case loads one testdata package under a
// synthetic import path (which is what the analyzers scope on) and
// diffs the findings against `// want` expectations in the sources.
var goldenCases = []struct {
	name  string // subtest name; the check list when empty
	check string // analyzer to run (suppression findings always apply)
	dir   string // directory under testdata/src
	path  string // synthetic import path controlling analyzer scope
}{
	{"", "determinism", "determinism", "repro/internal/dataplane"},
	{"", "lock-io", "lockio", "repro/internal/lockio"},
	// The call-graph half of lock-io (calls that reach I/O) has its own
	// corpus so the direct and the summary cases fail separately.
	{"lock-io-deep", "lock-io", "lockiodeep", "repro/internal/lockiodeep"},
	{"", "ctx-plumb", "ctxplumb", "repro/internal/pipeline"},
	{"", "panic-safe", "panicsafe", "repro/internal/server"},
	{"", "intern-write", "internwrite", "repro/internal/internwrite"},
	{"", "lock-order", "lockorder", "repro/internal/lockorder"},
	// goroutine-leak scopes on the service packages, so the corpus
	// loads under a synthetic cluster path.
	{"", "goroutine-leak", "goroutineleak", "repro/internal/cluster"},
	{"", "err-drop", "errdrop", "repro/internal/errdrop"},
	// The suppression-list corpus needs findings from two checks so a
	// comma list has members of each kind to exempt.
	{"", "lock-io,err-drop", "suppresslist", "repro/internal/suppresslist"},
}

// One loader for the whole test binary: the stdlib is source-imported
// and type-checked once, then shared by every corpus load.
var (
	loaderOnce sync.Once
	loader     *lint.Loader
	loaderErr  error
)

func testLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() { loader, loaderErr = lint.NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

func TestGoldenCorpus(t *testing.T) {
	l := testLoader(t)
	for _, tc := range goldenCases {
		name := tc.name
		if name == "" {
			name = tc.check
		}
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			pkg, err := l.LoadDir(dir, tc.path)
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", dir, err)
			}
			for _, e := range pkg.TypeErrs {
				t.Errorf("corpus does not type-check: %v", e)
			}
			if t.Failed() {
				t.FailNow()
			}
			analyzers, err := lint.Select(tc.check)
			if err != nil {
				t.Fatalf("Select(%q): %v", tc.check, err)
			}
			got := lint.Run([]*lint.Package{pkg}, analyzers)
			wants := parseWants(t, dir)

			for _, f := range got {
				if !claimWant(wants, f) {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: expected finding matching %q, got none",
						w.file, w.line, w.re)
				}
			}
		})
	}
}

// expectation is one `// want` comment: the finding message on that
// line must match the regexp.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// claimWant marks the first unclaimed expectation matching the finding
// and reports whether one existed.
func claimWant(wants []*expectation, f lint.Finding) bool {
	for _, w := range wants {
		if w.file == f.File && w.line == f.Line && !w.hit && w.re.MatchString(f.Message) {
			w.hit = true
			return true
		}
	}
	return false
}

// wantPattern extracts backquoted regexes from the tail of a `// want`
// comment: // want `first` `second`.
var wantPattern = regexp.MustCompile("`([^`]*)`")

func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir(%s): %v", dir, err)
	}
	var wants []*expectation
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			i := strings.Index(text, "// want")
			if i < 0 {
				continue
			}
			ms := wantPattern.FindAllStringSubmatch(text[i:], -1)
			if len(ms) == 0 {
				t.Errorf("%s:%d: malformed want comment (no backquoted regex)", path, line)
				continue
			}
			for _, m := range ms {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Errorf("%s:%d: bad want regexp %q: %v", path, line, m[1], err)
					continue
				}
				wants = append(wants, &expectation{file: path, line: line, re: re})
			}
		}
		if err := sc.Err(); err != nil {
			t.Errorf("scanning %s: %v", path, err)
		}
		f.Close()
	}
	return wants
}

// TestTreeClean runs the full suite over the real tree: the repo must
// lint clean, so any regression fails `go test ./...` as well as
// `make lint`.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree lint skipped with -short")
	}
	l := testLoader(t)
	pkgs, err := l.Packages([]string{"./..."})
	if err != nil {
		t.Fatalf("Packages(./...): %v", err)
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrs {
			t.Errorf("%s: type error: %v", p.Path, e)
		}
	}
	for _, f := range lint.Run(pkgs, lint.All()) {
		t.Errorf("tree is not lint-clean: %s", f)
	}
}

func TestSelect(t *testing.T) {
	all, err := lint.Select("")
	if err != nil || len(all) != len(lint.All()) {
		t.Fatalf("Select(\"\") = %d analyzers, err %v; want the full suite", len(all), err)
	}
	two, err := lint.Select("determinism, lock-io")
	if err != nil || len(two) != 2 {
		t.Fatalf("Select(two) = %d analyzers, err %v; want 2", len(two), err)
	}
	if _, err := lint.Select("nope"); err == nil {
		t.Fatal("Select(\"nope\") succeeded; want unknown-check error")
	}
}

package tcstudy_test

// Documentation link checking: every relative markdown link in README and
// docs/ must resolve to a file in the repository, and every file in docs/
// must be reachable from the README — a new doc that nobody links to is a
// doc nobody finds. The metric reference is checked against the metric
// registries, and the serving tier's declare-once rules against the
// source. This is the test half of the CI docs job; the other half
// (gofmt, go vet) runs as commands.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tcstudy/internal/core"
	"tcstudy/internal/dynamic"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/index"
	"tcstudy/internal/router"
	"tcstudy/internal/server"
)

// mdLink matches inline markdown links [text](target). Reference-style
// links are not used in this repo.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func markdownFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append(files, docs...)
}

func TestMarkdownLinksResolve(t *testing.T) {
	for _, file := range markdownFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"),
				strings.HasPrefix(target, "#"):
				continue // external links and same-page anchors: not checked
			}
			target = strings.SplitN(target, "#", 2)[0] // strip anchors
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", file, m[1], resolved)
			}
		}
	}
}

// TestDocsReachableFromReadme keeps the README's doc list complete: every
// file under docs/ must be linked (or at least mentioned by name) in
// README.md.
func TestDocsReachableFromReadme(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("no docs found")
	}
	for _, d := range docs {
		rel := filepath.ToSlash(d)
		if !strings.Contains(string(readme), rel) {
			t.Errorf("README.md does not reference %s", rel)
		}
	}
}

// declaredFamilies is every metric family tcserve and tcrouter can expose:
// the registries of a mutable server (which declares the index, mutation,
// tenant and planner families on top of the fixed ones) and of a router.
func declaredFamilies(t *testing.T) map[string]bool {
	t.Helper()
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: 50, OutDegree: 3, Locality: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(graph.New(50, arcs))
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := dynamic.New(50, arcs, idx, dynamic.Options{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dyn.Close()
	srv := server.New(core.NewDatabase(50, arcs), server.Options{Dynamic: dyn})
	defer srv.Close()
	rt, err := router.New(router.Options{Replicas: []string{"http://replica"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	declared := make(map[string]bool)
	for _, name := range append(srv.Metrics().Families(), rt.Metrics().Families()...) {
		declared[name] = true
	}
	return declared
}

var metricName = regexp.MustCompile(`\btcr?_[a-z0-9_]+`)

// TestMetricFamiliesDocumented ties docs/OBSERVABILITY.md to the metric
// registries: every declared family is in the doc, and every tc_/tcr_ name
// in the doc is a declared family (or a histogram family's _bucket, _sum
// or _count series).
func TestMetricFamiliesDocumented(t *testing.T) {
	declared := declaredFamilies(t)
	raw, err := os.ReadFile(filepath.Join("docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	named := make(map[string]bool)
	for _, name := range metricName.FindAllString(string(raw), -1) {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); !declared[name] && declared[base] {
				name = base
			}
		}
		named[name] = true
		if !declared[name] {
			t.Errorf("docs/OBSERVABILITY.md names %s, which no registry declares", name)
		}
	}
	for name := range declared {
		if !named[name] {
			t.Errorf("metric family %s is declared but missing from docs/OBSERVABILITY.md", name)
		}
	}
}

// TestServingFactsDeclaredOnce greps the non-test Go source outside bench/
// for the facts the serving tier must state exactly once: the wire name of
// the metric record's fields lives in one file, every metric family name
// is written once, the server's and router's handlers build no ad-hoc
// JSON maps, and tcload declares no body type of its own.
func TestServingFactsDeclaredOnce(t *testing.T) {
	familyLiteral := regexp.MustCompile(`"tcr?_[a-z0-9_]+"`)
	recordFiles, literals := 0, make(map[string]int)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		src, slash := string(raw), filepath.ToSlash(path)
		if strings.Contains(src, "restructure_reads") {
			recordFiles++
		}
		for _, lit := range familyLiteral.FindAllString(src, -1) {
			literals[lit]++
		}
		inTier := strings.HasPrefix(slash, "internal/server/") || strings.HasPrefix(slash, "internal/router/")
		if (inTier || slash == "cmd/tcload/main.go") && strings.Contains(src, "map[string]any") {
			t.Errorf("%s builds a JSON body from map[string]any; declare it in internal/api", slash)
		}
		if slash == "cmd/tcload/main.go" && strings.Contains(src, "`json:\"") {
			t.Errorf("%s declares a JSON body type; use internal/api", slash)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if recordFiles != 1 {
		t.Errorf("the metric record's wire fields are declared in %d files, want exactly 1 (internal/api)", recordFiles)
	}
	for lit, n := range literals {
		if n != 1 {
			t.Errorf("metric family name %s is written %d times, want once", lit, n)
		}
	}
}

package modelslicing_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocReferencesExist keeps the design records honest: every Test…,
// Benchmark… and Fuzz… name that DESIGN.md or ROADMAP.md cites must be a
// func in some _test.go file of the tree. A trailing * cites a prefix, which
// at least one such func must start with.
func TestDocReferencesExist(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Z]\w*)\(`)
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*\*?`)
	for _, doc := range []string{"DESIGN.md", "ROADMAP.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cite.FindAllString(string(text), -1) {
			if !resolves(name, funcs) {
				t.Errorf("%s cites %s, which no _test.go file declares", doc, name)
			}
		}
	}
}

// resolves reports whether a cited name is a declared func, or, with a
// trailing *, the prefix of one.
func resolves(name string, funcs map[string]bool) bool {
	prefix, ok := strings.CutSuffix(name, "*")
	if !ok {
		return funcs[name]
	}
	for f := range funcs {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

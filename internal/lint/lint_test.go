package lint_test

// Per-analyzer golden tests over internal/lint/testdata/src: each package
// carries at least one flagged and one clean case; pr4regress re-introduces
// the PR 4 subscriber-under-lock deadlock and asserts pdblint reports it.

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestLockCallback(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.LockCallback, "lockcallback")
}

// TestLockCallbackPR4Regression: the exact ApplyBatch-notifies-under-lock
// shape PR 4 fixed must be caught statically.
func TestLockCallbackPR4Regression(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.LockCallback, "pr4regress")
}

func TestObsLabels(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.ObsLabels, "obslabels")
}

func TestHotPath(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.HotPath, "hotpath")
}

func TestSlogOnly(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.SlogOnly, "slogonly")
}

// TestSuiteScoping pins the driver-side package filters: the lock contract
// is scoped to the store and server, slogonly to internal packages, and
// vet's test-package decorations normalize away.
func TestSuiteScoping(t *testing.T) {
	match := map[string]func(string) bool{}
	for _, s := range lint.Suite() {
		match[s.Analyzer.Name] = s.Match
	}
	cases := []struct {
		analyzer, pkg string
		want          bool
	}{
		{"lockcallback", "repro/internal/incr", true},
		{"lockcallback", "repro/internal/server", true},
		{"lockcallback", "repro/internal/core", false},
		{"slogonly", "repro/internal/wal", true},
		{"slogonly", "repro/cmd/pdbd", false},
		{"hotpath", "repro/internal/core/kernel", true},
		{"obslabels", "repro/internal/server", true},
	}
	for _, c := range cases {
		if got := match[c.analyzer](c.pkg); got != c.want {
			t.Errorf("%s.Match(%q) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
	norm := map[string]string{
		"repro/internal/server [repro/internal/server.test]": "repro/internal/server",
		"repro/internal/server_test":                         "repro/internal/server",
		"repro/internal/incr":                                "repro/internal/incr",
	}
	for in, want := range norm {
		if got := lint.NormalizePkgPath(in); got != want {
			t.Errorf("NormalizePkgPath(%q) = %q, want %q", in, got, want)
		}
	}
}

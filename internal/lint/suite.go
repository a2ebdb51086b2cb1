package lint

// The pdblint suite: which analyzer runs over which packages. Scoping lives
// here (in the driver layer), not in the analyzers, so the analysistest
// harness can exercise each analyzer on synthetic packages with arbitrary
// import paths.

import "strings"

// Scoped pairs an analyzer with the package filter the pdblint driver
// applies.
type Scoped struct {
	Analyzer *Analyzer
	// Match reports whether the analyzer runs over the package with this
	// import path (already normalized: vet's " [test]" suffix and the
	// external-test "_test" suffix are stripped).
	Match func(pkgPath string) bool
}

// Suite returns the pdblint analyzer suite in reporting order.
func Suite() []Scoped {
	all := func(string) bool { return true }
	return []Scoped{
		// The re-entrancy contract is owned by the store and the server on
		// top of it — the packages where callbacks, hooks and watch streams
		// meet the commit lock.
		{LockCallback, func(p string) bool {
			return strings.HasPrefix(p, "repro/internal/incr") || strings.HasPrefix(p, "repro/internal/server")
		}},
		{ObsLabels, all}, // self-limits to obs.Registry call sites
		{HotPath, all},   // directive-gated
		{SlogOnly, func(p string) bool { return strings.Contains(p, "internal/") }},
	}
}

// NormalizePkgPath strips the decorations the go command adds to test
// package paths: "repro/internal/server [repro/internal/server.test]" and
// "repro/internal/server_test" both scope like "repro/internal/server".
func NormalizePkgPath(p string) string {
	if i := strings.Index(p, " ["); i >= 0 {
		p = p[:i]
	}
	p = strings.TrimSuffix(p, "_test")
	p = strings.TrimSuffix(p, ".test")
	return p
}

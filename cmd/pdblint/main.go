// Command pdblint is the multichecker for the internal/lint analyzer suite:
// the static half of the engine's invariant enforcement (the race detector
// and fuzz oracles are the dynamic half). It machine-checks the contracts
// the PR 3–9 stack documents in prose — no callbacks under the store lock,
// fixed-enum metric labels, fmt-free hot paths with live bounds hints and
// slog-only internal logging.
//
// It runs two ways:
//
//	go vet -vettool=$(pwd)/bin/pdblint ./...    # the CI mode: full tree,
//	    test files included, package loading and caching by the go command
//	    (pdblint implements the vet unitchecker protocol: -V=full, -flags,
//	    and the JSON .cfg package description).
//
//	bin/pdblint ./...                           # standalone: self-drives
//	    `go list -deps -export -json` and checks non-test sources; handy
//	    for quick local runs of a single package.
//
// Exit status: 0 clean, 1 operational error, 2 diagnostics reported
// (matching vet's convention).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

var jsonFlag bool

func run(args []string) int {
	fs := flag.NewFlagSet("pdblint", flag.ExitOnError)
	fs.Usage = usage
	printVersion := fs.String("V", "", "print version and exit (-V=full, for the go command's tool ID)")
	flagsJSON := fs.Bool("flags", false, "print the tool's flag schema as JSON (vet protocol)")
	fs.BoolVar(&jsonFlag, "json", false, "emit diagnostics as JSON")
	fs.Parse(args)

	if *printVersion != "" {
		return doVersion(*printVersion)
	}
	if *flagsJSON {
		// pdblint has no per-analyzer flags; report the set vet may probe.
		fmt.Println("[]")
		return 0
	}
	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runUnitchecker(rest[0])
	}
	if len(rest) == 0 {
		usage()
		return 1
	}
	return runStandalone(rest)
}

func usage() {
	fmt.Fprintf(os.Stderr, `pdblint: static enforcement of the engine's concurrency, cardinality and hot-path contracts.

usage:
  go vet -vettool=$(command -v pdblint) ./...   # full tree including tests
  pdblint ./...                                 # standalone, non-test sources

analyzers:
`)
	for _, s := range lint.Suite() {
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", s.Analyzer.Name, s.Analyzer.Doc)
	}
}

// doVersion implements -V=full: the go command derives the vet tool's cache
// ID from this line, so it must change when the binary changes (the content
// hash does) and keep the "name version" shape it parses.
func doVersion(mode string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	name := filepath.Base(exe)
	if mode != "full" {
		fmt.Println(name)
		return 0
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", name, h.Sum(nil))
	return 0
}

// --- the vet unitchecker protocol ---

// vetConfig is the JSON package description the go command hands a vettool
// (the unitchecker wire format).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runUnitchecker(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdblint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "pdblint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The go command expects the facts file regardless of findings.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("pdblint-no-facts\n"), 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "pdblint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0 // facts-only run for a dependency; pdblint has no facts
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	diags, err := checkPackage(cfg.ImportPath, cfg.GoFiles, importer.ForCompiler(token.NewFileSet(), cfg.Compiler, lookup), cfg.GoVersion)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "pdblint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	return report(cfg.ImportPath, diags)
}

// --- standalone driver (go list -export) ---

// listPkg is the subset of `go list -json` pdblint consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
}

func runStandalone(patterns []string) int {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard", "--"}, patterns...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdblint: go list: %v\n", err)
		return 1
	}
	exports := map[string]string{}
	var targets []listPkg
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "pdblint: parsing go list output: %v\n", err)
			return 1
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	status := 0
	for _, p := range targets {
		var files []string
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		if len(files) == 0 {
			continue
		}
		diags, err := checkPackage(p.ImportPath, files, importer.ForCompiler(token.NewFileSet(), "gc", lookup), "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdblint: %s: %v\n", p.ImportPath, err)
			status = 1
			continue
		}
		if s := report(p.ImportPath, diags); s > status {
			status = s
		}
	}
	return status
}

// --- shared checking and reporting ---

type diagJSON struct {
	Analyzer string `json:"analyzer"`
	Posn     string `json:"posn"`
	Message  string `json:"message"`
}

type diag struct {
	analyzer string
	posn     token.Position
	message  string
}

// checkPackage parses and type-checks one package's files and runs every
// suite analyzer whose scope matches.
func checkPackage(importPath string, files []string, imp types.Importer, goVersion string) ([]diag, error) {
	fset := token.NewFileSet()
	var parsed []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	if len(parsed) == 0 {
		return nil, nil
	}
	info := lint.NewInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	if goVersion != "" {
		conf.GoVersion = goVersion
	}
	pkg, err := conf.Check(importPath, fset, parsed, info)
	if err != nil {
		return nil, err
	}

	normalized := lint.NormalizePkgPath(importPath)
	var out []diag
	for _, s := range lint.Suite() {
		if !s.Match(normalized) {
			continue
		}
		diags, err := lint.Run(s.Analyzer, fset, parsed, pkg, info)
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			out = append(out, diag{analyzer: s.Analyzer.Name, posn: fset.Position(d.Pos), message: d.Message})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].posn, out[j].posn
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out, nil
}

// report prints a package's diagnostics; returns 2 when any were found.
func report(importPath string, diags []diag) int {
	if len(diags) == 0 {
		return 0
	}
	if jsonFlag {
		byAnalyzer := map[string][]diagJSON{}
		for _, d := range diags {
			byAnalyzer[d.analyzer] = append(byAnalyzer[d.analyzer], diagJSON{
				Analyzer: d.analyzer, Posn: d.posn.String(), Message: d.message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		enc.Encode(map[string]map[string][]diagJSON{importPath: byAnalyzer})
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", d.posn, d.message, d.analyzer)
	}
	return 2
}

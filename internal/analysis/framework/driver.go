package framework

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Result is one driver run's outcome.
type Result struct {
	// Diagnostics are the surviving findings, sorted by file, line,
	// column, analyzer. A clean tree has none.
	Diagnostics []Diagnostic
	// Suppressed counts findings silenced by //iovet:allow comments.
	Suppressed int
}

// Run loads the packages matched by patterns (relative to dir) once,
// then applies every analyzer to the shared snapshot. known is the full
// registry of analyzer names valid inside //iovet:allow lists — it may
// be a superset of the analyzers actually running (e.g. `iovet -only
// detwall` must not reject an allow that names mapdet).
func Run(dir string, patterns []string, analyzers []*Analyzer, known []string) (*Result, error) {
	snap, err := LoadSnapshot(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return RunSnapshot(snap, analyzers, known)
}

// RunSnapshot is phase 2 of a driver invocation: it folds in
// allow-comment hygiene over every package, runs each analyzer's Init
// once against the snapshot's facts, then applies the analyzers to
// every package. Suppressions are collected globally before any
// analyzer runs, because a pass sees the module-wide Facts and may
// report at a position in any package of the snapshot, not only in the
// one it is passed over (no analyzer does so today) — an allow comment
// must work wherever the diagnostic lands.
func RunSnapshot(snap *Snapshot, analyzers []*Analyzer, known []string) (*Result, error) {
	knownSet := map[string]bool{}
	for _, n := range known {
		knownSet[n] = true
	}

	res := &Result{}
	sup := &suppressions{byFileLine: map[string]map[int]map[string]bool{}}
	for _, pkg := range snap.Pkgs {
		pkgSup, allowDiags := collectAllows(snap.Fset, pkg.Syntax, knownSet)
		res.Diagnostics = append(res.Diagnostics, allowDiags...)
		for file, lines := range pkgSup.byFileLine {
			sup.byFileLine[file] = lines
		}
	}

	inits := make([]any, len(analyzers))
	for i, a := range analyzers {
		if a.Init == nil {
			continue
		}
		v, err := a.Init(snap.Facts)
		if err != nil {
			return nil, fmt.Errorf("%s: init: %v", a.Name, err)
		}
		inits[i] = v
	}

	var found []Diagnostic
	for _, pkg := range snap.Pkgs {
		for i, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      snap.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Facts:     snap.Facts,
				Init:      inits[i],
				report:    func(d Diagnostic) { found = append(found, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: analyzing %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	seen := map[string]bool{}
	for _, d := range found {
		if sup.covers(d) {
			res.Suppressed++
			continue
		}
		// Interprocedural analyzers can rediscover the same fact from
		// several packages' views; a diagnostic is one (position,
		// analyzer, message) triple regardless of how many passes
		// reported it.
		key := fmt.Sprintf("%s:%d:%d:%s:%s", d.Position.Filename, d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
		if seen[key] {
			continue
		}
		seen[key] = true
		res.Diagnostics = append(res.Diagnostics, d)
	}

	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return res, nil
}

// Format writes the result's diagnostics one per line.
func Format(w io.Writer, res *Result) {
	for _, d := range res.Diagnostics {
		fmt.Fprintln(w, d.String())
	}
}

// jsonDiagnostic fixes the field order of -json output. CI's problem
// matcher parses these lines with a regex, so the order is part of the
// format: file, line, col, analyzer, message.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// WriteJSON writes the result's diagnostics as JSON Lines — one
// compact object per finding, empty output for a clean tree.
func WriteJSON(w io.Writer, res *Result) error {
	enc := json.NewEncoder(w)
	for _, d := range res.Diagnostics {
		if err := enc.Encode(jsonDiagnostic{
			File:     d.Position.Filename,
			Line:     d.Position.Line,
			Col:      d.Position.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		}); err != nil {
			return err
		}
	}
	return nil
}

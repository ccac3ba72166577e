package framework

import (
	"encoding/json"
	"fmt"
	"go/ast"
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

// RunSnapshot applies the analyzers to every package of a loaded
// snapshot. Allow comments are collected and checked over every file
// first, then each analyzer runs once per package, and only findings
// no allow covers survive.
func RunSnapshot(snap *Snapshot, analyzers []*Analyzer, known []string) (*Result, error) {
	knownSet := map[string]bool{}
	for _, n := range known {
		knownSet[n] = true
	}

	var files []*ast.File
	for _, pkg := range snap.Pkgs {
		files = append(files, pkg.Syntax...)
	}
	sup, allowDiags := collectAllows(snap.Fset, files, knownSet)
	res := &Result{Diagnostics: allowDiags}

	for _, pkg := range snap.Pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      snap.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				report: func(d Diagnostic) {
					if sup.covers(d) {
						res.Suppressed++
						return
					}
					res.Diagnostics = append(res.Diagnostics, d)
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: analyzing %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
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

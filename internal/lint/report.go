package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Severity levels. Every analyzer declares one; the distinction is carried
// into the machine-readable outputs so downstream tooling can triage, but
// any finding of any severity fails the lint run — a warning is a defect
// with known false-positive modes, not an ignorable note.
const (
	SeverityError   = "error"
	SeverityWarning = "warning"
)

// jsonFinding is the machine-readable encoding of one finding, stable for
// CI consumers (`cmd/noclint -format json`).
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// jsonReport is the top-level `-format json` document.
type jsonReport struct {
	Findings []jsonFinding  `json:"findings"`
	Counts   map[string]int `json:"counts"`
	Total    int            `json:"total"`
}

// WriteJSON encodes the findings as the noclint JSON report.
func WriteJSON(w io.Writer, findings []Finding) error {
	rep := jsonReport{
		Findings: make([]jsonFinding, 0, len(findings)),
		Counts:   CountByAnalyzer(findings),
		Total:    len(findings),
	}
	for _, f := range findings {
		rep.Findings = append(rep.Findings, jsonFinding{
			Analyzer: f.Analyzer,
			Severity: f.Severity,
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteGitHub renders the findings as GitHub Actions workflow commands
// (`::error file=...`), which the Actions runner turns into inline PR
// annotations. Newlines inside messages are escaped per the workflow-command
// encoding.
func WriteGitHub(w io.Writer, findings []Finding) {
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	for _, f := range findings {
		level := "error"
		if f.Severity == SeverityWarning {
			level = "warning"
		}
		fmt.Fprintf(w, "::%s file=%s,line=%d,col=%d,title=noclint/%s::%s\n",
			level, f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, esc.Replace(f.Message))
	}
}

// CountByAnalyzer tallies findings per analyzer name.
func CountByAnalyzer(findings []Finding) map[string]int {
	counts := make(map[string]int)
	for _, f := range findings {
		counts[f.Analyzer]++
	}
	return counts
}

// Summary renders the one-line findings summary CI logs lead with, e.g.
// "3 finding(s): hotpath=2 publish=1". Analyzers appear in name order so
// the line is stable.
func Summary(findings []Finding) string {
	counts := CountByAnalyzer(findings)
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, counts[name]))
	}
	return fmt.Sprintf("%d finding(s): %s", len(findings), strings.Join(parts, " "))
}

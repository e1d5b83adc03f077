package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/glift"
)

// goldenPath is the repository's committed msp430 report digests, one per
// Table-1 benchmark at default analysis options (TestGoldenReportDigests
// pins the same file).
const goldenPath = "internal/glift/testdata/msp430_report_digests.json"

// loadGolden reads the committed digests from the repository root.
func loadGolden(root string) (map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, fmt.Errorf("reading golden digests: %w", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenPath, err)
	}
	return want, nil
}

// digest is a report's identity modulo wall time, normalised exactly as
// TestGoldenReportDigests does: WallNanos zeroed, indented JSON, SHA-256.
func digest(rj glift.ReportJSON) (string, error) {
	rj.Stats.WallNanos = 0
	out, err := json.MarshalIndent(rj, "", "  ")
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(out)
	return hex.EncodeToString(sum[:]), nil
}

// checkReport compares a report against its reference digest.
func checkReport(rj glift.ReportJSON, want string) error {
	got, err := digest(rj)
	if err != nil {
		return err
	}
	if want == "" {
		return fmt.Errorf("no reference digest")
	}
	if got != want {
		return fmt.Errorf("report digest %.12s, reference %.12s", got, want)
	}
	return nil
}

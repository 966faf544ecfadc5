package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"r3bench/internal/val"
)

// The answer comparison is the one the cross-strategy agreement test of
// internal/r3/reports uses: rows compare as multisets of canonical
// strings, SAP's zero-padded key strings compare as numbers, and numeric
// fields agree within 1e-6 relative plus 5e-3 absolute.

func canonVal(v val.Value) string {
	switch v.K {
	case val.KNull:
		return "~"
	case val.KStr:
		s := strings.TrimSpace(v.S)
		if len(s) > 0 && len(strings.TrimLeft(s, "0123456789")) == 0 {
			return fmt.Sprintf("#%.3f", float64(v.AsInt()))
		}
		return s
	case val.KDate:
		return v.AsStr()
	default:
		return fmt.Sprintf("#%.3f", v.AsFloat())
	}
}

func canonRow(row []val.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = canonVal(v)
	}
	return strings.Join(parts, "|")
}

func almostEqualRows(a, b string) bool {
	af, bf := strings.Split(a, "|"), strings.Split(b, "|")
	if len(af) != len(bf) {
		return false
	}
	for i := range af {
		if af[i] == bf[i] {
			continue
		}
		if !strings.HasPrefix(af[i], "#") || !strings.HasPrefix(bf[i], "#") {
			return false
		}
		var x, y float64
		fmt.Sscanf(af[i][1:], "%f", &x)
		fmt.Sscanf(bf[i][1:], "%f", &y)
		if math.Abs(x-y) > 1e-6*math.Max(math.Abs(x), math.Abs(y))+5e-3 {
			return false
		}
	}
	return true
}

// canonRows is a result as the sorted canonical strings of its rows.
func canonRows(rows [][]val.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = canonRow(r)
	}
	sort.Strings(out)
	return out
}

// rowsAgree reports whether a result holds the rows of want (sorted
// canonical strings), with the tolerance above, and describes the first
// difference.
func rowsAgree(want []string, got [][]val.Value) (bool, string) {
	if len(want) != len(got) {
		return false, fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	gs := canonRows(got)
	for i := range want {
		if want[i] != gs[i] && !almostEqualRows(want[i], gs[i]) {
			return false, fmt.Sprintf("row %d is %s, want %s", i, gs[i], want[i])
		}
	}
	return true, ""
}

// answersAgree compares the Q1–Q17 answers of a pass with a reference.
func answersAgree(ref [17][]string, got [17][][]val.Value) bool {
	ok := true
	for q := range ref {
		if same, why := rowsAgree(ref[q], got[q]); !same {
			logf("Q%d: %s", q+1, why)
			ok = false
		}
	}
	return ok
}

// reference holds the Q1–Q17 answers at SF 0.005 as sorted canonical
// strings. They were written by the engine with -write-reference; the
// TPC-D data depends only on the scale factor, so they hold for every
// seed and for both pass workloads.
//
//go:embed reference.json
var referenceJSON []byte

func loadReference() ([17][]string, error) {
	var ref [17][]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reading the reference answers: %w", err)
	}
	return ref, nil
}

// writeReference runs Q1–Q17 once on a freshly loaded engine and writes
// their canonical answers to path.
func writeReference(path string, sf float64) error {
	env, err := buildPower(sf)
	if err != nil {
		return err
	}
	var ref [17][]string
	for q := 1; q <= 17; q++ {
		rows, err := env.impl.RunQuery(q)
		if err != nil {
			return err
		}
		ref[q-1] = canonRows(rows)
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

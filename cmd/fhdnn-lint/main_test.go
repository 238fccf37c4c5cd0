package main

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fhdnn/internal/analysis"
)

// The DESIGN.md Sec. 9 exit-bit table is declared authoritative: these
// tests fail when the registered rule set, the documented set, or the
// bit assignments drift apart — the failure mode that already happened
// twice across v2/v3 before the table was pinned.

var designRuleRow = regexp.MustCompile("^\\| `([a-z0-9-]+)` \\| (\\d+) \\|$")

// designRuleTable parses the rule → exit-bit table out of DESIGN.md
// Section 9, in document order.
func designRuleTable(t *testing.T) map[string]int {
	t.Helper()
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	section := false
	out := make(map[string]int)
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			section = strings.HasPrefix(line, "## 9.")
			continue
		}
		if !section {
			continue
		}
		m := designRuleRow.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		bit, err := strconv.Atoi(m[2])
		if err != nil {
			t.Fatalf("bad bit in DESIGN.md row %q: %v", line, err)
		}
		if prev, dup := out[m[1]]; dup {
			// the enforces-tables repeat rule names without bits; only
			// the exit-bit table matches the row pattern, so a true
			// duplicate is a doc bug
			t.Fatalf("rule %s documented twice (bits %d and %d)", m[1], prev, bit)
		}
		out[m[1]] = bit
	}
	if len(out) == 0 {
		t.Fatal("no exit-bit table found in DESIGN.md Sec. 9")
	}
	return out
}

func TestDesignTableMatchesRegisteredRules(t *testing.T) {
	documented := designRuleTable(t)
	registered := append([]string{}, analysis.AllRules...)
	registered = append(registered, analysis.RuleAllow)
	for _, r := range registered {
		if _, ok := documented[r]; !ok {
			t.Errorf("rule %s is registered but missing from the DESIGN.md table", r)
		}
	}
	for r := range documented {
		found := false
		for _, reg := range registered {
			if r == reg {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("rule %s is documented but not registered", r)
		}
	}
}

func TestDesignTableMatchesExitBits(t *testing.T) {
	documented := designRuleTable(t)
	for r, bit := range documented {
		got, ok := ruleBits[r]
		if !ok {
			t.Errorf("documented rule %s has no exit bit in ruleBits", r)
			continue
		}
		if got != bit {
			t.Errorf("rule %s: documented bit %d, registered bit %d", r, bit, got)
		}
	}
	for r, bit := range ruleBits {
		if documented[r] != bit {
			t.Errorf("ruleBits entry %s=%d not documented", r, bit)
		}
	}
}

func TestEveryRuleHasAnExitBit(t *testing.T) {
	for _, r := range analysis.AllRules {
		bit, ok := ruleBits[r]
		if !ok {
			t.Errorf("rule %s has no exit bit", r)
			continue
		}
		if bit <= 0 || bit&(bit-1) != 0 || bit > 32 {
			t.Errorf("rule %s has non-power-of-two bit %d", r, bit)
		}
	}
}

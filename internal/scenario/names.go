package scenario

import (
	"fmt"
	"strings"
)

// named is the one table of built-in scenario names: the canonical
// name, the short command-line alias and the constructor.
var named = []struct {
	name, alias string
	build       func() (*Scenario, error)
}{
	{"roof1", "1", Roof1},
	{"roof2", "2", Roof2},
	{"roof3", "3", Roof3},
	{"residential", "res", Residential},
}

// tableI is how many leading entries of named are the paper's Table I
// roofs, the set "all" selects.
const tableI = 3

// Names lists the canonical scenario names in table order.
func Names() []string {
	out := make([]string, len(named))
	for i, n := range named {
		out[i] = n.name
	}
	return out
}

// Canonical maps a scenario name or alias to its canonical name.
// Case and whitespace are ignored, so "Roof 1", "roof1" and "1" all
// name Roof 1.
func Canonical(name string) (string, error) {
	i, ok := lookup(name)
	if !ok {
		return "", unknown(name, "")
	}
	return named[i].name, nil
}

// ByName builds the scenario a name or alias selects (see Canonical).
func ByName(name string) (*Scenario, error) {
	i, ok := lookup(name)
	if !ok {
		return nil, unknown(name, "")
	}
	return named[i].build()
}

// Select builds the scenarios a comma list selects, in order of first
// mention and without repeats. Each entry is a name or alias (see
// Canonical) or "all", the three Table I roofs; empty entries are
// skipped.
func Select(spec string) ([]*Scenario, error) {
	var picked []int
	seen := make([]bool, len(named))
	pick := func(i int) {
		if !seen[i] {
			seen[i] = true
			picked = append(picked, i)
		}
	}
	for _, tok := range strings.Split(spec, ",") {
		switch normalize(tok) {
		case "":
		case "all":
			for i := 0; i < tableI; i++ {
				pick(i)
			}
		default:
			i, ok := lookup(tok)
			if !ok {
				return nil, unknown(tok, "all, ")
			}
			pick(i)
		}
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("no scenarios selected")
	}
	out := make([]*Scenario, len(picked))
	for j, i := range picked {
		sc, err := named[i].build()
		if err != nil {
			return nil, err
		}
		out[j] = sc
	}
	return out, nil
}

func normalize(name string) string {
	return strings.ToLower(strings.Join(strings.Fields(name), ""))
}

func lookup(name string) (int, bool) {
	key := normalize(name)
	for i, n := range named {
		if key == n.name || key == n.alias {
			return i, true
		}
	}
	return 0, false
}

// unknown lists every accepted name in its error, after extra.
func unknown(name, extra string) error {
	want := make([]string, len(named))
	for i, n := range named {
		want[i] = n.name + " (" + n.alias + ")"
	}
	return fmt.Errorf("unknown scenario %q (want %s%s)", name, extra, strings.Join(want, ", "))
}

package knobs

import (
	"fmt"
	"sort"
	"strings"
)

// FormatConfig renders actual knob values (aligned with the catalog) as a
// configuration file in the engine's native syntax: a my.cnf [mysqld]
// section for MySQL/CDB, YAML-ish setParameter lines for MongoDB,
// postgresql.conf assignments for Postgres, and an OPTIONS-file
// [DBOptions] section for the LSM engine. Only values that differ from
// the knob defaults are emitted, sorted by name; changedOnly=false emits
// everything.
func FormatConfig(c *Catalog, values []float64, changedOnly bool) (string, error) {
	if len(values) != c.Len() {
		return "", fmt.Errorf("knobs: FormatConfig got %d values for %d knobs", len(values), c.Len())
	}
	type kv struct {
		name  string
		value float64
		typ   Type
	}
	var out []kv
	for i, k := range c.Knobs {
		if changedOnly && values[i] == k.Default {
			continue
		}
		out = append(out, kv{k.Name, values[i], k.Type})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })

	header, line := "", "%s = %s\n"
	switch c.Engine {
	case EngineCDB, EngineLocalMySQL:
		header = "[mysqld]\n"
	case EngineMongoDB:
		header, line = "setParameter:\n", "  %s: %s\n"
	case EnginePostgres:
		header = "# postgresql.conf\n"
	case EngineLSM:
		header = "[DBOptions]\n"
	default:
		return "", fmt.Errorf("knobs: FormatConfig: unknown engine %v", c.Engine)
	}
	var b strings.Builder
	b.WriteString(header)
	for _, e := range out {
		fmt.Fprintf(&b, line, e.name, formatValue(e.value, e.typ))
	}
	return b.String(), nil
}

func formatValue(v float64, t Type) string {
	switch t {
	case TypeFloat:
		return fmt.Sprintf("%g", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

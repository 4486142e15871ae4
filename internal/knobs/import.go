package knobs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ParseConfig reads a configuration file in the engine's native syntax
// (the formats FormatConfig emits: my.cnf assignments, MongoDB
// setParameter lines, postgresql.conf assignments) and returns actual knob
// values aligned with the catalog. Knobs absent from the file keep their
// defaults; unknown keys are returned so callers can warn about them.
// Values outside a knob's valid range are clamped.
func ParseConfig(c *Catalog, r io.Reader, ramGB, diskGB float64) (values []float64, unknown []string, err error) {
	values = c.Denormalize(c.Defaults(ramGB, diskGB), ramGB, diskGB)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, ";") {
			continue
		}
		if strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]") {
			continue // my.cnf section header
		}
		if strings.HasSuffix(line, ":") {
			continue // YAML section header (setParameter:)
		}
		var key, val string
		switch {
		case strings.Contains(line, "="):
			parts := strings.SplitN(line, "=", 2)
			key, val = strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
		case strings.Contains(line, ":"):
			parts := strings.SplitN(line, ":", 2)
			key, val = strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
		default:
			return nil, nil, fmt.Errorf("knobs: line %d: cannot parse %q", lineNo, line)
		}
		i := c.Index(key)
		if i < 0 {
			unknown = append(unknown, key)
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err == nil && math.IsNaN(f) {
			err = strconv.ErrSyntax
		}
		if err != nil {
			return nil, nil, fmt.Errorf("knobs: line %d: value %q for %s: %w", lineNo, val, key, err)
		}
		k := c.Knobs[i]
		// Clamp into the hardware-scaled valid range via the normalize/
		// denormalize round trip.
		values[i] = k.Value(k.Normalize(f, ramGB, diskGB), ramGB, diskGB)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("knobs: reading config: %w", err)
	}
	return values, unknown, nil
}

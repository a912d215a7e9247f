package selection

import (
	"fmt"
	"strings"
)

// Spec renders s as the canonical spec Parse reads back to an equal
// selector, the form a RoundStart carries it in: the selector's Name, and
// for the entropy selectors their parameters after a colon
// ("eds:temperature=0.1", "batch-eds:temperature=0.1,batch=8"; a
// BatchEntropy at the default batch size renders none). A selector that
// could not select (a temperature that is not positive) has no spec.
func Spec(s Selector) (string, error) {
	switch s := s.(type) {
	case All, Random, Margin, LeastConfidence:
		return s.Name(), nil
	case Entropy:
		if s.Temperature > 0 {
			return fmt.Sprintf("eds:temperature=%v", s.Temperature), nil
		}
	case BatchEntropy:
		if s.Temperature > 0 && s.BatchSize >= 0 {
			spec := fmt.Sprintf("batch-eds:temperature=%v", s.Temperature)
			if s.BatchSize > 0 {
				spec += fmt.Sprintf(",batch=%d", s.BatchSize)
			}
			return spec, nil
		}
	}
	return "", fmt.Errorf("%w: no spec for selector %#v", ErrSelection, s)
}

// Parse reads a spec back into its selector: the one whose Spec it is, so
// Parse accepts exactly what Spec renders and every selector has one
// spelling.
func Parse(spec string) (Selector, error) {
	_, params, _ := strings.Cut(spec, ":")
	var e Entropy
	var b BatchEntropy
	_, _ = fmt.Sscanf(params, "temperature=%g", &e.Temperature)
	_, _ = fmt.Sscanf(params, "temperature=%g,batch=%d", &b.Temperature, &b.BatchSize)
	for _, s := range []Selector{All{}, Random{}, Margin{}, LeastConfidence{}, e, b} {
		if canonical, err := Spec(s); err == nil && canonical == spec {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: %q is not a selector spec (all, rds, margin, leastconf, "+
		"eds:temperature=<ρ> or batch-eds:temperature=<ρ>[,batch=<n>])", ErrSelection, spec)
}

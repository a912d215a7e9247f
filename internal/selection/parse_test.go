package selection

import (
	"errors"
	"testing"
)

// TestSpecRoundTrip holds Parse to Spec over every selector the simulator's
// arms build (experiments: Tables I-IV, the ablations and Fig. 10's ρ sweep):
// a RoundStart carries the spec, and the client must train under a selector
// equal to the server's.
func TestSpecRoundTrip(t *testing.T) {
	for _, s := range []Selector{
		All{}, Random{}, Margin{}, LeastConfidence{},
		Entropy{Temperature: 0.1}, Entropy{Temperature: 1}, Entropy{Temperature: 0.5}, Entropy{Temperature: 1e-3},
		BatchEntropy{Temperature: 0.1, BatchSize: 8}, BatchEntropy{Temperature: 0.3},
	} {
		spec, err := Spec(s)
		if err != nil {
			t.Fatalf("%#v: %v", s, err)
		}
		got, err := Parse(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if got != s {
			t.Errorf("%#v renders as %q, which parses to %#v", s, spec, got)
		}
		if again, _ := Spec(got); again != spec {
			t.Errorf("%q re-renders as %q", spec, again)
		}
	}
	if spec, _ := Spec(Entropy{Temperature: 0.1}); spec != "eds:temperature=0.1" {
		t.Errorf("paper EDS renders as %q", spec)
	}
}

func TestParseRejects(t *testing.T) {
	// Only Spec's own renderings parse: no defaults, no second spelling.
	for _, spec := range []string{"", "ALL", "entropy", "eds", "all:", "eds:temperature=0", "eds:temperature=-1",
		"eds:temperature=NaN", "eds:rho=0.1", "eds:temperature", "eds:temperature=0.1,temperature=0.2",
		"eds:temperature=1e-1", "eds:temperature=0.10", "eds:temperature=0.1x", "rds:fraction=0.5",
		"batch-eds:temperature=0.1,batch=-1", "batch-eds:temperature=0.1,batch=0", "batch-eds:temperature=0.1,batch=x"} {
		if s, err := Parse(spec); !errors.Is(err, ErrSelection) {
			t.Errorf("%q parsed to %#v, %v", spec, s, err)
		}
	}
	for _, s := range []Selector{nil, Entropy{}, BatchEntropy{Temperature: 0.1, BatchSize: -1}} {
		if spec, err := Spec(s); !errors.Is(err, ErrSelection) {
			t.Errorf("%#v rendered as %q", s, spec)
		}
	}
}

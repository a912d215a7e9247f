package strategy

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Names lists the flag-constructible strategy identifiers in display order.
func Names() []string {
	return []string{"fedavg", "fedprox", "fedavgm", "fedadam", "fedyogi"}
}

// Parse maps a CLI strategy spec to a Strategy. The spec is a name with
// optional comma-separated key=value parameters after a colon, e.g.
//
//	fedavg
//	fedprox:mu=0.1
//	fedavgm:lr=1,beta1=0.9
//	fedadam:lr=0.05,beta1=0.9,beta2=0.99,tau=0.001
//	fedyogi:lr=0.1
//
// Omitted parameters keep their defaults. The names are shared by
// `fedsim -strategy` and `fedserver -strategy`; each call constructs a
// fresh strategy (stateful server optimizers are never shared across runs).
func Parse(spec string) (Strategy, error) {
	name, rest, _ := strings.Cut(spec, ":")
	p, err := parseParams(name, rest)
	if err != nil {
		return nil, err
	}
	var s Strategy
	switch name {
	case "fedavg":
		s, err = FedAvg(), nil
	case "fedprox":
		s, err = FedProx(p.take("mu", DefaultProxMu))
	case "fedavgm":
		s, err = FedAvgM(p.take("lr", DefaultMomentumLR), p.take("beta1", DefaultBeta1))
	case "fedadam":
		s, err = FedAdam(p.take("lr", DefaultAdaptiveLR), p.take("beta1", DefaultBeta1),
			p.take("beta2", DefaultBeta2), p.take("tau", DefaultTau))
	case "fedyogi":
		s, err = FedYogi(p.take("lr", DefaultAdaptiveLR), p.take("beta1", DefaultBeta1),
			p.take("beta2", DefaultBeta2), p.take("tau", DefaultTau))
	default:
		return nil, fmt.Errorf("%w: unknown strategy %q (want one of %s)",
			ErrStrategy, name, strings.Join(Names(), ", "))
	}
	if err != nil {
		return nil, err
	}
	if err := p.drained(); err != nil {
		return nil, err
	}
	return s, nil
}

// params is a parsed parameter list that tracks which keys were consumed,
// so a typo ("beta=0.9" for "beta1") fails instead of silently keeping the
// default.
type params struct {
	name   string
	values map[string]float64
}

// parseParams splits "k1=v1,k2=v2" into float parameters.
func parseParams(name, rest string) (*params, error) {
	p := &params{name: name, values: make(map[string]float64)}
	if rest == "" {
		return p, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok || key == "" {
			return nil, fmt.Errorf("%w: strategy %s: malformed parameter %q (want key=value)",
				ErrStrategy, name, kv)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("%w: strategy %s: parameter %s=%q is not a finite number",
				ErrStrategy, name, key, val)
		}
		if _, dup := p.values[key]; dup {
			return nil, fmt.Errorf("%w: strategy %s: duplicate parameter %q", ErrStrategy, name, key)
		}
		p.values[key] = f
	}
	return p, nil
}

// take consumes a parameter, falling back to def.
func (p *params) take(key string, def float64) float64 {
	if v, ok := p.values[key]; ok {
		delete(p.values, key)
		return v
	}
	return def
}

// drained errors when unconsumed (unknown) parameters remain.
func (p *params) drained() error {
	if len(p.values) == 0 {
		return nil
	}
	keys := make([]string, 0, len(p.values))
	for k := range p.values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return fmt.Errorf("%w: strategy %s does not take parameter(s) %s",
		ErrStrategy, p.name, strings.Join(keys, ", "))
}

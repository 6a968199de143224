package bench

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Gate is one acceptance bound of an experiment: a name and one check
// over the Report the run produced. Gates are declared once, on the
// Experiment. RunReport evaluates them and renders each as a "gate:"
// note under its table, so the bound that fails the run, the line in
// the report and the threshold in the documentation are one
// declaration.
type Gate struct {
	Table string // id of the table whose notes carry the "gate:" line
	Name  string // the bound in words, threshold included
	Check func(p *Probe)
}

// Probe reads numbers out of a report for one gate check and keeps the
// first violation. A table, row, column, variant or counter that is not
// there is a violation too: a gate that cannot be evaluated has not
// held.
type Probe struct {
	r   *Report
	err error
}

// Failf records a violation; it should name the offending value.
func (p *Probe) Failf(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

// AtLeast records a violation unless got >= min.
func (p *Probe) AtLeast(what string, got, min float64) {
	if !(got >= min) {
		p.Failf("%s = %.4g, below %.4g", what, got, min)
	}
}

// AtMost records a violation unless got <= max.
func (p *Probe) AtMost(what string, got, max float64) {
	if !(got <= max) {
		p.Failf("%s = %.4g, above %.4g", what, got, max)
	}
}

// Rising records a violation unless vals increase strictly.
func (p *Probe) Rising(what string, vals ...float64) {
	for i := 1; i < len(vals); i++ {
		if !(vals[i-1] < vals[i]) {
			p.Failf("%s = %.4g, not strictly rising", what, vals)
			return
		}
	}
}

// Cell returns one table cell as a number: the table by id, the column
// by its header, the row by its leading cells. A trailing unit ("x",
// "%") is dropped.
func (p *Probe) Cell(table, col string, key ...string) float64 {
	for _, t := range p.r.Tables {
		if t.ID != table {
			continue
		}
		ci := slices.Index(t.Columns, col)
		if ci < 0 {
			p.Failf("table %s has no column %q", table, col)
			return 0
		}
		for _, row := range t.Rows {
			if len(row) > ci && len(row) >= len(key) && slices.Equal(row[:len(key)], key) {
				v, err := strconv.ParseFloat(strings.TrimRight(row[ci], "x%"), 64)
				if err != nil {
					p.Failf("table %s row %v column %q: cell %q is not a number", table, key, col, row[ci])
				}
				return v
			}
		}
		p.Failf("table %s has no row %v", table, key)
		return 0
	}
	p.Failf("report has no table %q", table)
	return 0
}

func (p *Probe) variant(name string) *VariantMetrics {
	for i := range p.r.Variants {
		if p.r.Variants[i].Variant == name {
			return &p.r.Variants[i]
		}
	}
	p.Failf("report has no variant %q", name)
	return &VariantMetrics{}
}

// PerOp returns the derived per-operation statistics of one variant.
func (p *Probe) PerOp(variant, op string) OpStat {
	st, ok := p.variant(variant).PerOp[op]
	if !ok {
		p.Failf("variant %s recorded no %s operations", variant, op)
	}
	return st
}

// Counter returns one counter (or gauge) of a variant's whole-run
// snapshot. The instrument must have been registered, even if it never
// moved: absence means the metric family was not wired up.
func (p *Probe) Counter(variant, name string) int64 {
	total := p.variant(variant).Total
	if v, ok := total.Counters[name]; ok {
		return v
	}
	if v, ok := total.Gauges[name]; ok {
		return v
	}
	p.Failf("variant %s has no metric %s", variant, name)
	return 0
}

// applyGates evaluates every gate over r and appends its "gate:" line
// to the table it names. The error joins all violations, each led by
// the gate's name.
func (r *Report) applyGates(gates []Gate) error {
	var errs []error
	for _, g := range gates {
		p := Probe{r: r}
		g.Check(&p)
		if i := slices.IndexFunc(r.Tables, func(t Table) bool { return t.ID == g.Table }); i >= 0 {
			r.Tables[i].Notes = append(r.Tables[i].Notes, "gate: "+g.Name)
		} else {
			p.Failf("report has no table %q to carry the gate", g.Table)
		}
		if p.err != nil {
			errs = append(errs, fmt.Errorf("gate %q violated: %w", g.Name, p.err))
		}
	}
	return errors.Join(errs...)
}

package lint

// overflow: arithmetic feeding tick accounting must not be able to exceed
// int64, and selectivity math must not divide by a possibly-zero divisor.
//
// Multiplications use MAY semantics: a product whose value flows into
// (*executor.Meter).AddTicks — directly or through the sink-parameter
// closure of summaryval.go — is flagged whenever the operand intervals
// admit an overflowing corner, unless a dominating `a > math.MaxInt64/b`
// comparison proved the pair safe (the guard idiom) or the arithmetic is
// routed through a checked helper (a real call boundary stops sink
// propagation, which is how executor.mulTicksSat discharges the rule).
// Unbounded operands therefore count as overflowable: per-row tick rates
// multiply by batch lengths on the metering hot path, where a silent wrap
// corrupts every downstream re-optimization decision.
//
// Additions use PROVEN semantics (every operand combination overflows):
// tick accumulators add all the time, and may-level adds would be noise.
//
// Divisions and modulos are audited in the optimizer/stats packages only —
// the selectivity and cardinality math of the paper's validity ranges —
// and flagged when the divisor is proven zero or carries positive
// zero-path evidence (a reaching path assigned or compared it to zero).

import "go/token"

// OverflowAnalyzer is the overflow/division-by-zero value rule.
var OverflowAnalyzer = &Analyzer{
	Name: "overflow",
	Doc:  "tick-accounting multiplications/additions whose operand ranges can exceed int64, and optimizer/stats divisions by a possibly-zero divisor",
	Run:  runOverflow,
}

// overflowScope is where tick-arithmetic sites are audited.
var overflowScope = []string{"repro"}

// overflowDivScope is where division sites are audited: the selectivity and
// cardinality math packages.
var overflowDivScope = []string{optimizerPath, statsPath}

const (
	optimizerPath = "repro/internal/optimizer"
	statsPath     = "repro/internal/stats"
)

func runOverflow(prog *Program, report ReportFunc) {
	va := programValues(prog)
	for _, fn := range va.funcs {
		sites := va.sites[fn]
		if sites == nil {
			continue
		}
		if inScope(fn.Pkg.Path, overflowScope) {
			for _, s := range sites.mulAdds {
				if !s.sink || s.guard {
					continue
				}
				switch s.op {
				case token.MUL:
					if s.xv.iv.MulCanOverflow(s.yv.iv) {
						report(s.pos, "%s * %s feeds tick accounting but can overflow int64 (operand ranges %s and %s); use a saturating helper or guard with MaxInt64/b", s.xs, s.ys, s.xv.iv, s.yv.iv)
					}
				case token.ADD:
					if s.xv.iv.AddMustOverflow(s.yv.iv) {
						report(s.pos, "%s + %s feeds tick accounting and provably overflows int64 (operand ranges %s and %s)", s.xs, s.ys, s.xv.iv, s.yv.iv)
					}
				}
			}
		}
		if inScope(fn.Pkg.Path, overflowDivScope) {
			for _, s := range sites.divs {
				dv := s.dv
				provenZero := !dv.iv.IsEmpty() && dv.iv.Lo == 0 && dv.iv.Hi == 0
				zeroPath := dv.zeroPath && dv.iv.Contains(0)
				if !provenZero && !zeroPath {
					continue
				}
				opName := "division"
				if s.op == token.REM {
					opName = "modulo"
				}
				if provenZero {
					report(s.pos, "%s by %s, which is provably zero here", opName, s.divStr)
				} else if s.intOp {
					report(s.pos, "%s by %s, which a reaching path proves zero (guard the divisor before dividing)", opName, s.divStr)
				} else {
					report(s.pos, "%s by %s, which a reaching path proves zero (selectivity math would produce Inf/NaN)", opName, s.divStr)
				}
			}
		}
	}
}

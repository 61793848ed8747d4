package lint

// exhaustive: a switch over a module-declared enum-like constant set must
// either cover every declared constant or carry a default clause.
//
// "Enum-like" is structural: the switch tag's type is a named type declared
// inside the module whose underlying type is a basic string or integer and
// for which the declaring package exports at least exhaustiveMinConsts
// package-level constants of exactly that type (trace.Kind, server response
// codes, pop strategy names). Coverage is by constant VALUE, not name, so
// aliased constants count. A single non-constant case expression makes the
// switch uncheckable and it is skipped entirely — no guessing.
//
// The rule is purely syntactic over the type-checked AST; it needs no call
// graph.

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// ExhaustiveAnalyzer is the enum-switch coverage rule.
var ExhaustiveAnalyzer = &Analyzer{
	Name: "exhaustive",
	Doc:  "switches over module enum-like const sets must cover every declared constant or have a default",
	Run:  runExhaustive,
}

var exhaustiveScope = []string{"repro"}

// exhaustiveMinConsts is the smallest declared-constant set treated as an
// enum; below it, a named type with one or two constants is usually a
// sentinel, not an enumeration.
const exhaustiveMinConsts = 2

func runExhaustive(prog *Program, report ReportFunc) {
	for _, pkg := range prog.Packages {
		if !inScope(pkg.Path, exhaustiveScope) || pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if ok && sw.Tag != nil {
					checkEnumSwitch(pkg, sw, report)
				}
				return true
			})
		}
	}
}

func checkEnumSwitch(pkg *Package, sw *ast.SwitchStmt, report ReportFunc) {
	tagT := pkg.Info.TypeOf(sw.Tag)
	tn := enumTypeOf(tagT)
	if tn == nil {
		return
	}
	consts := enumConstsOf(tn)
	if len(consts) < exhaustiveMinConsts {
		return
	}

	covered := map[string]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // default clause: the switch is total by construction
		}
		for _, e := range cc.List {
			tv, ok := pkg.Info.Types[e]
			if !ok || tv.Value == nil {
				return // non-constant case: coverage is undecidable, skip
			}
			covered[tv.Value.ExactString()] = true
		}
	}

	var missing []string
	for _, c := range consts {
		if !covered[c.Val().ExactString()] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	report(sw.Pos(), "switch on %s.%s is missing cases %s (cover them or add a default)",
		tn.Pkg().Name(), tn.Name(), strings.Join(missing, ", "))
}

// enumTypeOf returns the switch tag's named type when it qualifies as a
// module enum carrier: declared in-scope, underlying basic string/integer,
// not a type parameter or alias of a predeclared type.
func enumTypeOf(t types.Type) *types.TypeName {
	tn := namedTypeOf(t)
	if tn == nil || tn.Pkg() == nil || !inScope(tn.Pkg().Path(), exhaustiveScope) {
		return nil
	}
	b, ok := tn.Type().Underlying().(*types.Basic)
	if !ok || b.Info()&(types.IsString|types.IsInteger) == 0 {
		return nil
	}
	return tn
}

// enumConstsOf collects the package-level constants declared with exactly
// the named type, in scope-name order (already sorted, keeping reports
// deterministic).
func enumConstsOf(tn *types.TypeName) []*types.Const {
	scope := tn.Pkg().Scope()
	var out []*types.Const
	names := scope.Names()
	sort.Strings(names)
	for _, name := range names {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if types.Identical(c.Type(), tn.Type()) {
			out = append(out, c)
		}
	}
	return out
}

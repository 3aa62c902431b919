// Package metricname lints mwld's Prometheus exposition, which is
// rendered only through metrics.Writer (repro/internal/metrics). Every
// call of a Writer method that writes a family must pass a constant
// name that follows the project convention:
//
//   - names match mwld_[a-z][a-z0-9_]* — lowercase, no dashes, no
//     double or trailing underscores;
//   - counters end in _total, never _totals/_num/_counter;
//   - durations and sizes use base units: _seconds and _bytes, never
//     _ms/_millis/_micros/_nanos/_sec/_secs;
//   - the suffix agrees with the kind the method writes: Counter and
//     CounterVec names end in _total, Histogram names in _seconds or
//     _bytes, Gauge and GaugeVec names never in _total;
//   - each family is written by at most one call per package — a
//     family with two headers is an exposition-format violation
//     scrapers reject.
//
// It also reports any "# TYPE mwld_..." string literal, so hand-written
// exposition cannot come back beside the Writer.
package metricname

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the metricname check.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc: "metrics.Writer calls must name mwld_* families by constant, following Prometheus " +
		"naming conventions, once per package; no hand-written # TYPE exposition",
	Run: run,
}

// writerPkg is the import path of the package whose Writer renders the
// exposition.
const writerPkg = "repro/internal/metrics"

var validRe = regexp.MustCompile(`^mwld_[a-z][a-z0-9_]*$`)

// badUnits maps forbidden suffixes to the convention they violate.
var badUnits = map[string]string{
	"_ms": "_seconds", "_millis": "_seconds", "_milliseconds": "_seconds",
	"_micros": "_seconds", "_microseconds": "_seconds",
	"_nanos": "_seconds", "_nanoseconds": "_seconds",
	"_sec": "_seconds", "_secs": "_seconds",
	"_totals": "_total", "_num": "_total", "_counter": "_total",
}

// kinds maps each family-writing Writer method to the kind it writes.
var kinds = map[string]string{
	"Counter": "counter", "CounterVec": "counter",
	"Gauge": "gauge", "GaugeVec": "gauge",
	"Histogram": "histogram",
}

func run(pass *analysis.Pass) error {
	families := make(map[string]token.Pos)
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				// Spelled in two literals so this line does not match itself.
				if n.Kind == token.STRING && strings.Contains(n.Value, "# TYPE "+"mwld_") {
					pass.Reportf(n.Pos(), "hand-written metric exposition; write the family through metrics.Writer")
				}
			case *ast.CallExpr:
				method, ok := writerMethod(pass, n)
				if !ok || len(n.Args) == 0 {
					return true
				}
				pos := n.Args[0].Pos()
				tv := pass.TypesInfo.Types[n.Args[0]]
				if tv.Value == nil || tv.Value.Kind() != constant.String {
					pass.Reportf(pos, "metric name passed to metrics.Writer.%s must be a constant string", method)
					return true
				}
				name := constant.StringVal(tv.Value)
				if prev, dup := families[name]; dup {
					pass.Reportf(pos, "metric family %s written more than once in this package (previous write at %s)",
						name, pass.Fset.Position(prev))
				} else {
					families[name] = pos
				}
				if checkName(pass, pos, name) {
					checkKind(pass, pos, name, kinds[method])
				}
			}
			return true
		})
	}
	return nil
}

// writerMethod reports whether call invokes a family-writing method of
// metrics.Writer, and which.
func writerMethod(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || kinds[fn.Name()] == "" {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	named, ok := recv.Type().(*types.Named)
	if !ok || named.Obj().Name() != "Writer" || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != writerPkg {
		return "", false
	}
	return fn.Name(), true
}

// checkName reports a malformed name or a non-base unit suffix, and
// whether the name is well-formed enough to check its kind.
func checkName(pass *analysis.Pass, pos token.Pos, name string) bool {
	if !validRe.MatchString(name) || strings.Contains(name, "__") || strings.HasSuffix(name, "_") {
		pass.Reportf(pos, "metric name %q is not of the form mwld_[a-z][a-z0-9_]*", name)
		return false
	}
	for bad, good := range badUnits {
		if strings.HasSuffix(name, bad) {
			pass.Reportf(pos, "metric name %q uses suffix %s; the convention is %s", name, bad, good)
		}
	}
	return true
}

func checkKind(pass *analysis.Pass, pos token.Pos, name, kind string) {
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "counter %q must end in _total", name)
		}
	case "histogram":
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
			pass.Reportf(pos, "histogram %q must carry a base unit suffix (_seconds or _bytes)", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "gauge %q must not end in _total (that suffix is reserved for counters)", name)
		}
	}
}

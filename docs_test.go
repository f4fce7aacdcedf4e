package diffaudit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestREADMEDocumentsServe holds README to what a client of `diffaudit
// serve` branches on, read from the source rather than from a list kept
// here: its flags table names exactly the serve command's flags, its error
// table exactly the typed error codes, each with the status errors.go
// documents for it, and its route table exactly the mux's routes.
func TestREADMEDocumentsServe(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)

	var flags []string
	inspectFunc(t, "cmd/diffaudit/main.go", "serve", func(call *ast.CallExpr) {
		if recv, ok := call.Fun.(*ast.SelectorExpr); ok && isIdent(recv.X, "fs") {
			if name, ok := firstString(call.Args); ok {
				flags = append(flags, "-"+name)
			}
		}
	})
	sameSet(t, "serve flags", firstColumn(t, readme, "### Serve flags"), flags)

	var routes []string
	inspectFunc(t, "internal/server/routes.go", "registerRoutes", func(call *ast.CallExpr) {
		if recv, ok := call.Fun.(*ast.SelectorExpr); ok && recv.Sel.Name == "HandleFunc" {
			if pattern, ok := firstString(call.Args); ok {
				routes = append(routes, pattern)
			}
		}
	})
	var documented []string
	for _, route := range firstColumn(t, readme, "### HTTP API (v1)") {
		path, _, _ := strings.Cut(route, "?")
		documented = append(documented, path)
	}
	sameSet(t, "routes", documented, routes)

	// errors.go declares each code as a code* constant and documents its
	// status in the table above them ("not_found  404  ...").
	src, err := os.ReadFile("internal/server/errors.go")
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "errors.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	status := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^//\t([a-z_]+) +(\d{3}) `).FindAllStringSubmatch(string(src), -1) {
		status[m[1]] = m[2]
	}
	var codes []string
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			if !strings.HasPrefix(vs.Names[0].Name, "code") {
				continue
			}
			code, ok := firstString(vs.Values)
			if !ok {
				t.Fatalf("errors.go: %s is not a string constant", vs.Names[0].Name)
			}
			codes = append(codes, code)
		}
	}
	rows := table(t, readme, "### Error codes")
	var tabled []string
	for _, row := range rows {
		code := strings.Trim(row[0], "`")
		tabled = append(tabled, code)
		got := ""
		if len(row) > 1 {
			got = row[1]
		}
		if want := status[code]; got != want {
			t.Errorf("README error table: %s has status %q, errors.go documents %q", code, got, want)
		}
	}
	sameSet(t, "error codes", tabled, codes)
}

// inspectFunc calls visit on every call expression in the named function
// of a Go source file, and fails the test when the function is missing.
func inspectFunc(t *testing.T, path, name string, visit func(*ast.CallExpr)) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == name {
			ast.Inspect(fn, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					visit(call)
				}
				return true
			})
			return
		}
	}
	t.Fatalf("%s: no func %s", path, name)
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// firstString returns the first string literal among exprs.
func firstString(exprs []ast.Expr) (string, bool) {
	for _, e := range exprs {
		if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			s, err := strconv.Unquote(lit.Value)
			return s, err == nil
		}
	}
	return "", false
}

// table returns the body rows of the first markdown table after heading,
// each cell trimmed. It fails the test when there is none.
func table(t *testing.T, readme, heading string) [][]string {
	t.Helper()
	_, rest, ok := strings.Cut(readme, "\n"+heading+"\n")
	if !ok {
		t.Fatalf("README has no %q section", heading)
	}
	var rows [][]string
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		var cells []string
		for _, cell := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.TrimSpace(cell))
		}
		rows = append(rows, cells)
	}
	if len(rows) < 3 {
		t.Fatalf("README %q: no table with a body", heading)
	}
	return rows[2:] // past the header and its --- line
}

// firstColumn returns a table's first cells with their backticks removed.
func firstColumn(t *testing.T, readme, heading string) []string {
	t.Helper()
	var col []string
	for _, row := range table(t, readme, heading) {
		col = append(col, strings.Trim(row[0], "`"))
	}
	return col
}

// sameSet reports what README documents that the source lacks, and what
// the source has that README leaves out.
func sameSet(t *testing.T, what string, documented, actual []string) {
	t.Helper()
	if len(actual) == 0 {
		t.Fatalf("no %s found in the source", what)
	}
	for _, d := range documented {
		if !slices.Contains(actual, d) {
			t.Errorf("README documents %s %q, which the source does not have", what, d)
		}
	}
	for _, a := range actual {
		if !slices.Contains(documented, a) {
			t.Errorf("README does not document %s %q", what, a)
		}
	}
}

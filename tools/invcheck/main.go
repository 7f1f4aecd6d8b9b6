// Command invcheck is the CI lint gate: a multi-analyzer static checker
// that mechanically enforces the repo's determinism, context,
// error-discipline, goroutine-join, snapshot-publish, hot-path
// allocation, WAL fail-stop and documentation contracts — the
// invariants that keep results byte-identical across workers, shardings,
// transports, and WAL replays, and that property tests can only catch
// probabilistically.
//
// The checker is type-aware: every package is type-checked once
// (go/types with the stdlib source importer; module-local imports
// resolve from the module root) and analyzers match real objects and
// types — error-typed sentinel objects rather than Err[A-Z]* name
// patterns, sync/atomic.Pointer[T] by type identity, context.Context
// through aliases and renamed imports.
//
// Usage:
//
//	go run ./tools/invcheck [-format=text|github] [-suppressions] [dir ...]
//
// Each dir is walked recursively (a trailing /... is accepted and
// equivalent); without arguments the current directory is walked, the
// root itself included. Directories named testdata or vendor and
// dot-directories below a root are exempt, as are _test.go files and
// files excluded by their build constraints. Exit status 1 reports
// violations; exit status 2 reports a usage error, or a file that fails
// to parse or type-check (printed to stderr as [framework] diagnostics
// — an unanalyzable file is never silently skipped).
//
// Output formats (-format):
//
//	text    file:line: [analyzer] message, sorted (default)
//	github  GitHub Actions ::error annotations for inline CI review
//
// Every run applies all eight analyzers:
//
//	determinism   — no wall-clock reads or unseeded math/rand in the
//	                byte-identity engine packages (assoc, reference,
//	                fptree, hashtree, transactions, dist, wal, serve,
//	                seqmine), and no range over a map-typed expression
//	                that appends to a slice or writes output without an
//	                intervening sort.
//	ctxdiscipline — exported functions in engine/dist/serve packages
//	                that loop over shards or transactions take
//	                ctx context.Context first, and no struct stores a
//	                context outside the allowlist.
//	errwrap       — package-level error-typed sentinel objects are
//	                matched with errors.Is (never ==/!= or switch
//	                cases) and wrapped with %w.
//	goroutines    — every go statement is lexically paired with a
//	                WaitGroup or channel join in the same function.
//	atomicpublish — in internal/serve, stores on values of type
//	                sync/atomic.Pointer[T] happen only inside a
//	                designated publish helper.
//	allocbound    — functions annotated //invcheck:hotpath are free of
//	                provable allocation sites: composite literals,
//	                growing appends, string concatenation, interface
//	                boxing at call sites, capturing closures.
//	walfailstop   — in internal/wal and internal/serve, errors from
//	                write/sync-shaped calls are checked on every path
//	                before any further persist/apply/ack step and are
//	                never swallowed.
//	doccomment    — every package has a package doc comment, and every
//	                exported type, function, method on an exported
//	                type, const and var has a doc comment (a block
//	                comment covers its block).
//
// A finding can be suppressed with a reasoned inline directive on the
// same line or the line above:
//
//	//lint:ignore invcheck/<analyzer> <reason>
//
// A suppression without a reason, or naming an unknown analyzer, is
// itself a violation ([suppress]). The -suppressions flag audits the
// inventory instead of checking: it lists every directive in the files
// the gate would load as file:line: invcheck/<analyzer>: reason and
// exits 0, so CI can budget the count and review the reasons.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses argv, runs every analyzer
// over every root, prints findings to stdout, and returns the process
// exit code (0 clean, 1 violations, 2 usage/parse/type error).
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("invcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text or github")
	audit := fs.Bool("suppressions", false, "list every //lint:ignore invcheck/* directive instead of checking")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *format != "text" && *format != "github" {
		fmt.Fprintf(stderr, "invcheck: unknown -format %q (have text, github)\n", *format)
		return 2
	}
	roots := fs.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	if *audit {
		return runSuppressionAudit(roots, stdout, stderr)
	}
	var findings []Finding
	for _, root := range roots {
		v, err := checkTree(normalizeRoot(root), registry)
		if err != nil {
			if fe, ok := err.(*frameworkError); ok {
				for _, d := range fe.diags {
					fmt.Fprintln(stderr, d)
				}
				fmt.Fprintln(stderr, "invcheck: tree failed to parse or type-check; nothing was gated")
				return 2
			}
			fmt.Fprintln(stderr, "invcheck:", err)
			return 2
		}
		findings = append(findings, v...)
	}
	sortFindings(findings)
	for _, f := range findings {
		if *format == "github" {
			fmt.Fprintf(stdout, "::error file=%s,line=%d::%s\n",
				f.File, f.Line, githubEscape(fmt.Sprintf("[%s] %s", f.Analyzer, f.Message)))
		} else {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "invcheck: %d invariant violations\n", len(findings))
		return 1
	}
	return 0
}

// githubEscape encodes the characters the workflow-command parser
// treats specially in annotation messages.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// runSuppressionAudit lists every invcheck suppression directive under
// the roots. Exit 0 with the inventory on stdout (and a count on
// stderr); exit 2 when a root cannot be parsed.
func runSuppressionAudit(roots []string, stdout, stderr io.Writer) int {
	var sups []suppression
	for _, root := range roots {
		s, err := collectSuppressions(normalizeRoot(root))
		if err != nil {
			fmt.Fprintln(stderr, "invcheck:", err)
			return 2
		}
		sups = append(sups, s...)
	}
	sort.Slice(sups, func(i, j int) bool {
		if sups[i].file != sups[j].file {
			return sups[i].file < sups[j].file
		}
		return sups[i].line < sups[j].line
	})
	for _, s := range sups {
		fmt.Fprintf(stdout, "%s:%d: invcheck/%s: %s\n", s.file, s.line, s.analyzer, s.reason)
	}
	fmt.Fprintf(stderr, "invcheck: %d suppressions\n", len(sups))
	return 0
}

// normalizeRoot maps a go-style package pattern like ./... onto the
// directory it names, so `go run ./tools/invcheck ./...` works the way
// the other go tools do. The walk is always recursive.
func normalizeRoot(root string) string {
	root = strings.TrimSuffix(root, "...")
	root = strings.TrimSuffix(root, "/")
	if root == "" {
		root = "."
	}
	return root
}

// registryNames returns the registered analyzer names, comma-joined,
// for error messages.
func registryNames() string {
	names := make([]string, len(registry))
	for i, a := range registry {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// sortFindings orders findings by file, then line, then analyzer and
// message, so output is deterministic and diffs are stable.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

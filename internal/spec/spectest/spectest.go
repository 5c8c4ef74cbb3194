// Package spectest holds the round-trip property of the rule grammar,
// shared by the fuzz targets of both rule kinds: each target feeds its
// inputs to the alert and the recorded-rule parsers alike.
package spectest

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"likwid/internal/alert"
	"likwid/internal/derive"
)

// RoundTrip reads src as an alert rule file and as a derive file.  Every
// rule or route either accepts must render back (String, Spec) into a
// line the parser reads into the same value: the round trip that keeps
// /rules and /derive output interchangeable with rule files, and reload
// diffing exact.  RoundTrip reports the first violation; a parser panic
// propagates to the caller.
func RoundTrip(src string) error {
	if rules, err := alert.ParseRules(src); err == nil {
		for _, r := range rules {
			again, err := alert.ParseRule(r.String(), r.Line)
			if err := sameRule(src, r, again, err, r.Lookback, r.For); err != nil {
				return err
			}
		}
	}
	rules, routes, err := derive.ParseFile(src)
	if err != nil {
		return nil
	}
	for _, r := range rules {
		again, err := derive.ParseRule(r.String(), r.Line)
		if err := sameRule(src, r, again, err, r.Over); err != nil {
			return err
		}
	}
	for _, route := range routes {
		if !strings.HasPrefix(route.Spec, "route ") {
			return fmt.Errorf("route spec %q lacks the route keyword", route.Spec)
		}
		_, again, err := derive.ParseFile(route.Spec)
		if err != nil {
			return fmt.Errorf("accepted route in %q renders as %q, which does not parse: %v", src, route.Spec, err)
		}
		if len(again) != 1 || again[0].Spec != route.Spec {
			return fmt.Errorf("route rendering not canonical: %q -> %+v", route.Spec, again)
		}
	}
	return nil
}

// sameRule reports unless the rendering of the accepted rule want parsed
// without error into again, which renders the same, and, when every
// duration of the rule is below ~1e6 s, equals want: only there do
// durations convert exactly to the rules' float64 seconds and back.
func sameRule[R fmt.Stringer](src string, want, again R, err error, durations ...float64) error {
	rendered := want.String()
	if err != nil {
		return fmt.Errorf("accepted rule in %q renders as %q, which does not parse: %v", src, rendered, err)
	}
	if got := again.String(); got != rendered {
		return fmt.Errorf("rendering not canonical: %q renders again as %q", rendered, got)
	}
	if slices.Max(durations) <= 1e6 && !reflect.DeepEqual(again, want) {
		return fmt.Errorf("round trip changed the rule:\n src  %q\n spec %q\n got  %#v\n want %#v", src, rendered, again, want)
	}
	return nil
}

package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestDispatch pins the subcommand surface: a missing or unknown
// subcommand prints the subcommand list on stderr and exits 2, and
// `pmctl <sub> -h` lists that subcommand's flags — its shared group and
// its own — and nobody else's. Flag combinations sim cannot honour exit 2
// with a message.
func TestDispatch(t *testing.T) {
	simGroup := []string{"-bench", "-mode", "-threads", "-elements", "-txns", "-log-kb"}
	dumpGroup := []string{"-dump", "-images", "-no-images", "-json"}
	cases := []struct {
		name     string
		args     []string
		wantExit int
		want     []string // on stderr
		wantNot  []string
	}{
		{name: "no subcommand", args: nil, wantExit: 2,
			want: []string{"usage: pmctl <subcommand>", "sim", "trace", "recover", "doctor", "scope", "top"}},
		{name: "unknown subcommand", args: []string{"pmdoctor"}, wantExit: 2,
			want: []string{`unknown subcommand "pmdoctor"`, "usage: pmctl <subcommand>"}},
		{name: "sim -h", args: []string{"sim", "-h"},
			want:    append([]string{"usage: pmctl sim [flags]", "-suite", "-compare", "-json"}, simGroup...),
			wantNot: []string{"-dump", "-events", "-crash-frac", "-once"}},
		{name: "trace -h", args: []string{"trace", "-h"},
			want:    append([]string{"usage: pmctl trace [flags]", "-events", "-ghz", "-o "}, simGroup...),
			wantNot: []string{"-suite", "-crash-frac", "-dump", "-json"}},
		{name: "recover -h", args: []string{"recover", "-h"},
			want:    append([]string{"usage: pmctl recover [flags]", "-crash-frac", "-trials", "-load-image"}, simGroup...),
			wantNot: []string{"-suite", "-events", "-dump", "-json"}},
		{name: "doctor -h", args: []string{"doctor", "-h"},
			want:    append([]string{"usage: pmctl doctor [flags] [dump.json]", "-span", "-strict"}, dumpGroup...),
			wantNot: []string{"-bench", "-threads", "-once"}},
		{name: "scope -h", args: []string{"scope", "-h"},
			want:    append([]string{"usage: pmctl scope [flags] [dump.json]"}, dumpGroup...),
			wantNot: []string{"-span", "-strict", "-bench", "-once"}},
		{name: "top -h", args: []string{"top", "-h"},
			want:    []string{"usage: pmctl top [flags]", "-addr", "-interval", "-windows", "-width", "-once"},
			wantNot: []string{"-bench", "-dump", "-json"}},
		{name: "stray operand", args: []string{"top", "extra"}, wantExit: 2,
			want: []string{"usage: pmctl top [flags]"}},
		{name: "two dumps", args: []string{"scope", "a.json", "b.json"}, wantExit: 2,
			want: []string{"usage: pmctl scope [flags] [dump.json]"}},
		{name: "sim -mix with whisper", args: []string{"sim", "-suite", "whisper", "-bench", "tpcc", "-mix", "hash,sps"}, wantExit: 2,
			want: []string{"-mix runs microbenchmarks"}},
		{name: "sim -values str with whisper", args: []string{"sim", "-suite", "whisper", "-bench", "tpcc", "-values", "str"}, wantExit: 2,
			want: []string{"-values str is for microbenchmarks"}},
		{name: "sim -values unknown", args: []string{"sim", "-values", "float"}, wantExit: 2,
			want: []string{`-values "float": want micro or whisper, and int or str`}},
		{name: "sim -suite unknown", args: []string{"sim", "-suite", "splash"}, wantExit: 2,
			want: []string{`-suite "splash" -values "int": want micro or whisper`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := run(tc.args, &out, &errw); code != tc.wantExit {
				t.Fatalf("exit %d, want %d:\n%s", code, tc.wantExit, errw.String())
			}
			if out.Len() != 0 {
				t.Errorf("usage went to stdout:\n%s", out.String())
			}
			for _, want := range tc.want {
				if !strings.Contains(errw.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, errw.String())
				}
			}
			for _, not := range tc.wantNot {
				if strings.Contains(errw.String(), "  "+not+" ") || strings.Contains(errw.String(), "  "+not+"\n") {
					t.Errorf("stderr lists %q, another subcommand's flag:\n%s", not, errw.String())
				}
			}
		})
	}
}

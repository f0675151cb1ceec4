package instio

import (
	"bytes"
	"strings"
	"testing"
)

// TestDecodeErrorTextPinned pins the exact text of rejections around
// the number path, where a one-pass read inside the window and the
// isolated-token read at its edge meet: every message below was
// captured from the decoder that had only the isolated-token read.
func TestDecodeErrorTextPinned(t *testing.T) {
	decode := func(body string) error {
		_, err := Decode(strings.NewReader(body))
		return err
	}
	scan := func(body string) error {
		_, err := ScanInstance([]byte(body))
		return err
	}
	assignment := func(body string) error {
		_, err := DecodeAssignment([]byte(body))
		return err
	}
	// stream reads a batch array through a window of size bytes and
	// returns the error that ends it.
	stream := func(size int) func(string) error {
		return func(body string) error {
			d := newDecoderSize(bytes.NewReader([]byte(body)), size)
			for {
				if _, err := d.Next(); err != nil {
					return err
				}
			}
		}
	}
	inC := func(num string) string { return `{"m":1,"c":` + num + `,"threads":[{"kind":"linear"}]}` }
	inXs := func(num string) string {
		return `{"m":1,"c":10,"threads":[{"kind":"sampled","xs":[0,` + num + `],"ys":[0,1]}]}`
	}
	const th = `{"kind":"linear","slope":1}`
	type tc struct {
		name string
		read func(string) error
		body string
	}
	var cases []tc
	for _, bad := range []string{`01`, `1.`, `-`, `1e`, `1-2`, `--1`, `1.5e+`} {
		cases = append(cases,
			tc{"c=" + bad, decode, inC(bad)},
			tc{"xs=" + bad, decode, inXs(bad)},
			tc{"scan c=" + bad, scan, inC(bad)},
			tc{"window c=" + bad, stream(16), "[" + inC(bad) + "]"})
	}
	cases = append(cases,
		tc{"m=01", decode, `{"m":01}`},
		tc{"c=1e309", decode, inC(`1e309`)},
		tc{"xs=1e309", decode, inXs(`1e309`)},
		tc{"scan c=1e309", scan, inC(`1e309`)},
		tc{"window c=1e309", stream(16), "[" + inC(`1e309`) + "]"},
		tc{"window c=-1e309", stream(16), "[" + inC(`-1e309`) + "]"},
		tc{"window number too long", stream(16), "[" + inC(`1234567890.1234567`) + "]"},
		tc{"window split 1.5e+", stream(16), `[{"m":1,"c":12.5e+}]`},
		tc{"window split xs", stream(16), "[" + inXs(`1.25e-1.5`) + "]"},
		tc{"body ends in a number", decode, `{"m":1,"c":12`},
		tc{"body ends in a bad number", decode, `{"m":1,"c":12e`},
		tc{"scan body ends in a number", scan, `{"m":1,"c":12`},
		tc{"assignment ends in a number", assignment, `{"utility":1.5`},
		tc{"assignment alloc 2e", assignment, `{"alloc":[1,2e]}`},
		tc{"assignment server 1.5", assignment, `{"server":[0,1.5]}`},
		tc{"null in xs", decode, `{"m":1,"c":10,"threads":[{"kind":"sampled","xs":[0,null,2],"ys":[0,1,2]}]}`},
		tc{"null in ys", decode, `{"m":1,"c":10,"threads":[{"kind":"sampled","xs":[0,1,2],"ys":[0,1,null]}]}`},
		tc{"ys trailing comma", decode, `{"m":1,"c":10,"threads":[{"kind":"sampled","xs":[0,1],"ys":[1,]}]}`},
		tc{"ys missing comma", decode, `{"m":1,"c":10,"threads":[{"kind":"sampled","xs":[0,1],"ys":[1 2]}]}`},
		tc{"KIND twice", decode, `{"m":1,"c":10,"threads":[{"kind":"linear","KIND":"log"}]}`},
		tc{"KIND unknown", decode, `{"m":1,"c":10,"threads":[{"KIND":"cubic"}]}`},
		tc{"bad element 2", stream(windowSize), "[" + inC("1") + ",\n" + inC("2") + ",\n" + inC("3.x") + "]"},
		tc{"bad element 0", stream(windowSize), `[{"m":2,"c":100,"threads":[` + th + `,{"kind":"linear","slope":1.5e+}]}]`},
	)
	want := map[string]string{
		"c=01":                        "instio: c: invalid number \"01\" at offset 11",
		"xs=01":                       "instio: threads[0].xs[1]: invalid number \"01\" at offset 51",
		"scan c=01":                   "instio: c: invalid number \"01\" at offset 11",
		"window c=01":                 "instio: instance 0: c: invalid number \"01\" at offset 12",
		"c=1.":                        "instio: c: invalid number \"1.\" at offset 11",
		"xs=1.":                       "instio: threads[0].xs[1]: invalid number \"1.\" at offset 51",
		"scan c=1.":                   "instio: c: invalid number \"1.\" at offset 11",
		"window c=1.":                 "instio: instance 0: c: invalid number \"1.\" at offset 12",
		"c=-":                         "instio: c: invalid number \"-\" at offset 11",
		"xs=-":                        "instio: threads[0].xs[1]: invalid number \"-\" at offset 51",
		"scan c=-":                    "instio: c: invalid number \"-\" at offset 11",
		"window c=-":                  "instio: instance 0: c: invalid number \"-\" at offset 12",
		"c=1e":                        "instio: c: invalid number \"1e\" at offset 11",
		"xs=1e":                       "instio: threads[0].xs[1]: invalid number \"1e\" at offset 51",
		"scan c=1e":                   "instio: c: invalid number \"1e\" at offset 11",
		"window c=1e":                 "instio: instance 0: c: invalid number \"1e\" at offset 12",
		"c=1-2":                       "instio: c: invalid number \"1-2\" at offset 11",
		"xs=1-2":                      "instio: threads[0].xs[1]: invalid number \"1-2\" at offset 51",
		"scan c=1-2":                  "instio: c: invalid number \"1-2\" at offset 11",
		"window c=1-2":                "instio: instance 0: c: invalid number \"1-2\" at offset 12",
		"c=--1":                       "instio: c: invalid number \"--1\" at offset 11",
		"xs=--1":                      "instio: threads[0].xs[1]: invalid number \"--1\" at offset 51",
		"scan c=--1":                  "instio: c: invalid number \"--1\" at offset 11",
		"window c=--1":                "instio: instance 0: c: invalid number \"--1\" at offset 12",
		"c=1.5e+":                     "instio: c: invalid number \"1.5e+\" at offset 11",
		"xs=1.5e+":                    "instio: threads[0].xs[1]: invalid number \"1.5e+\" at offset 51",
		"scan c=1.5e+":                "instio: c: invalid number \"1.5e+\" at offset 11",
		"window c=1.5e+":              "instio: instance 0: c: invalid number \"1.5e+\" at offset 12",
		"m=01":                        "instio: m: invalid number \"01\" at offset 5",
		"c=1e309":                     "instio: c: number 1e309 out of float64 range",
		"xs=1e309":                    "instio: threads[0].xs[1]: number 1e309 out of float64 range",
		"scan c=1e309":                "instio: c: number 1e309 out of float64 range",
		"window c=1e309":              "instio: instance 0: c: number 1e309 out of float64 range",
		"window c=-1e309":             "instio: instance 0: c: number -1e309 out of float64 range",
		"window number too long":      "instio: instance 0: c: number longer than the decoder window",
		"window split 1.5e+":          "instio: instance 0: c: invalid number \"12.5e+\" at offset 12",
		"window split xs":             "instio: instance 0: threads[0].xs[1]: invalid number \"1.25e-1.5\" at offset 52",
		"body ends in a number":       "instio: unexpected EOF",
		"body ends in a bad number":   "instio: c: invalid number \"12e\" at offset 11",
		"scan body ends in a number":  "instio: unexpected EOF",
		"assignment ends in a number": "instio: unexpected EOF",
		"assignment alloc 2e":         "instio: alloc[1]: invalid number \"2e\" at offset 12",
		"assignment server 1.5":       "instio: server[1]: number 1.5 is not an int",
		"null in xs":                  "instio: threads[0].xs: knots must be strictly increasing: [1]=0 after [0]=0",
		"null in ys":                  "instio: threads[0].ys: utility: values must be nondecreasing",
		"ys trailing comma":           "instio: threads[0].ys[1]: invalid character ']' looking for a number at offset 62",
		"ys missing comma":            "instio: threads[0].ys: invalid character '2' after array element at offset 62",
		"KIND twice":                  "instio: threads[0].kind: duplicate key \"KIND\"",
		"KIND unknown":                "instio: threads[0].kind: unknown utility kind \"cubic\"",
		"bad element 2":               "instio: instance 2: c: invalid number \"3.\" at offset 102",
		"bad element 0":               "instio: instance 0: threads[1].slope: invalid number \"1.5e+\" at offset 80",
	}
	for _, c := range cases {
		err := c.read(c.body)
		if w, ok := want[c.name]; !ok || err == nil || err.Error() != w {
			t.Errorf("%s: %q\n got %v\nwant %s", c.name, c.body, err, w)
		}
	}
}

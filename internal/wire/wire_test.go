package wire

import "testing"

func TestIsJSON(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"application/json", true},
		{"application/json; charset=utf-8", true},
		{"application/json;charset=UTF-8", true},
		{"Application/JSON", true},
		{" application/json ; charset=utf-8", true},
		{"application/json; charset", true}, // malformed parameter, media type still clear
		{"", false},
		{"text/plain", false},
		{"application/jsonl", false},
		{"application/x-json", false},
		{"text/plain; note=application/json", false},
		{"json", false},
	} {
		if got := IsJSON(tc.header); got != tc.want {
			t.Errorf("IsJSON(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// A JSON body yields its name and program field, any other content type
// the raw body; a JSON body that does not decode is an error, and one
// without a program field yields empty text.
func TestProgramText(t *testing.T) {
	for _, tc := range []struct {
		contentType, body, name, text string
		err                           bool
	}{
		{"text/plain", "ret\n", "", "ret\n", false},
		{"", `{"program":"ret\n"}`, "", `{"program":"ret\n"}`, false},
		{"application/json", `{"name":"a","program":"ret\n"}`, "a", "ret\n", false},
		{"application/json;charset=UTF-8", `{"program":"ret\n"}`, "", "ret\n", false},
		{"application/json", `{"vector":[1]}`, "", "", false},
		{"application/json", `not json`, "", "", true},
	} {
		name, text, err := ProgramText([]byte(tc.body), tc.contentType)
		if (err != nil) != tc.err || name != tc.name || string(text) != tc.text {
			t.Errorf("ProgramText(%q, %q) = %q, %q, %v", tc.body, tc.contentType, name, text, err)
		}
	}
}

// Package wire decodes the program a request body carries. The replica
// caches features under the SHA-256 of ProgramText's text and the
// gateway routes on the same hash, so a program's cache address and its
// shard come from one decode and cannot drift apart. Stdlib only.
package wire

import (
	"encoding/json"
	"mime"
)

// IsJSON reports whether a Content-Type header names the
// application/json media type. The match is case-insensitive and
// ignores parameters (charset, boundary); an absent or malformed
// header is not JSON, so the body is treated as raw assembly.
func IsJSON(contentType string) bool {
	// A malformed parameter still yields the media type (with
	// ErrInvalidMediaParameter); any other error yields "".
	mt, _, _ := mime.ParseMediaType(contentType)
	return mt == "application/json"
}

// ProgramText returns the sample name and program text of a request
// body: the "name" and "program" fields of a JSON body, or no name and
// the raw body for any other content type. A JSON body that does not
// decode is an error.
func ProgramText(body []byte, contentType string) (name string, text []byte, err error) {
	if !IsJSON(contentType) {
		return "", body, nil
	}
	var req struct {
		Name    string `json:"name"`
		Program string `json:"program"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return "", nil, err
	}
	return req.Name, []byte(req.Program), nil
}

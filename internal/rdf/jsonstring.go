package rdf

import "unicode/utf8"

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal — quoted and
// escaped byte for byte as encoding/json.Marshal renders a string
// (HTML-sensitive <, > and & as \u00XX, U+2028/U+2029 escaped, invalid
// UTF-8 replaced by \ufffd) — to dst and returns the extended slice.
// The SPARQL JSON result encoder writes term values and variable names
// with it, so no value passes through json.Marshal.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0 // s[start:i] is the pending run of bytes needing no escape
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

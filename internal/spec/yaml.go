package spec

import (
	"fmt"
	"strconv"
	"strings"
)

// Thin YAML-subset reader. The subset covers what workload specs need —
// and nothing else — so it stays stdlib-only and line-precise:
//
//   - mappings: `key: value`, nested by space indentation
//   - sequences: `- item` block items (scalars or mappings), plus flow
//     sequences of scalars `[a, b]`
//   - scalars: null/~, true/false, integers, floats, quoted ("..." and
//     '...') and bare strings
//   - comments: `#` to end of line (outside quotes), blank lines, an
//     optional leading `---` document marker
//
// Not supported (rejected with a line-precise error): tab indentation,
// flow mappings `{...}`, nested flow sequences, anchors/aliases, multi-
// document streams, block scalars (| and >).

// yamlLine is one significant source line: its 1-based number, indent
// column, and content with the indent and any trailing comment removed.
type yamlLine struct {
	num    int
	indent int
	text   string
}

// yamlLines splits a document into significant lines.
func yamlLines(data []byte) ([]yamlLine, error) {
	var out []yamlLine
	for i, raw := range strings.Split(string(data), "\n") {
		num := i + 1
		line := strings.TrimSuffix(raw, "\r")
		text, err := stripComment(line, num)
		if err != nil {
			return nil, err
		}
		text = strings.TrimRight(text, " \t")
		trimmed := strings.TrimLeft(text, " ")
		if trimmed == "" || (trimmed == "---" && len(out) == 0) {
			continue
		}
		indent := len(text) - len(trimmed)
		if strings.ContainsRune(text[:indent], '\t') || strings.HasPrefix(trimmed, "\t") {
			return nil, &Error{Line: num, Msg: "tab indentation is not supported (use spaces)"}
		}
		out = append(out, yamlLine{num: num, indent: indent, text: trimmed})
	}
	return out, nil
}

// stripComment removes a trailing `#` comment that is outside quotes and
// either starts the line or follows whitespace.
func stripComment(line string, num int) (string, error) {
	var inSingle, inDouble bool
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c == '\'' && !inDouble:
			inSingle = !inSingle
		case c == '"' && !inSingle:
			inDouble = !inDouble
		case c == '#' && !inSingle && !inDouble:
			if i == 0 || line[i-1] == ' ' || line[i-1] == '\t' {
				return line[:i], nil
			}
		}
	}
	if inSingle || inDouble {
		return "", &Error{Line: num, Msg: "unterminated quoted string"}
	}
	return line, nil
}

// yamlToAny parses the YAML subset into a JSON-compatible value tree:
// map[string]any, []any, string, int64, float64, bool or nil.
func yamlToAny(data []byte) (any, error) {
	lines, err := yamlLines(data)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, &Error{Msg: "empty document"}
	}
	p := &yparser{lines: lines}
	v, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	if p.i < len(p.lines) {
		ln := p.lines[p.i]
		return nil, &Error{Line: ln.num, Msg: fmt.Sprintf("unexpected content %q after the document root", ln.text)}
	}
	return v, nil
}

type yparser struct {
	lines []yamlLine
	i     int
}

// isSeqItem reports whether a line starts a block sequence item.
func isSeqItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

// parseBlock parses the mapping or sequence starting at the current line,
// whose indent column defines the block.
func (p *yparser) parseBlock() (any, error) {
	ln := p.lines[p.i]
	if isSeqItem(ln.text) {
		return p.parseSeq(ln.indent)
	}
	return p.parseMap(ln.indent)
}

// parseMap parses mapping entries at exactly the given indent.
func (p *yparser) parseMap(indent int) (any, error) {
	m := map[string]any{}
	for p.i < len(p.lines) {
		ln := p.lines[p.i]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, &Error{Line: ln.num, Msg: fmt.Sprintf("unexpected indentation (want column %d, got %d)", indent+1, ln.indent+1)}
		}
		if isSeqItem(ln.text) {
			return nil, &Error{Line: ln.num, Msg: "unexpected list item inside a mapping"}
		}
		key, rest, err := splitKey(ln)
		if err != nil {
			return nil, err
		}
		if _, dup := m[key]; dup {
			return nil, &Error{Line: ln.num, Msg: fmt.Sprintf("duplicate key %q", key)}
		}
		p.i++
		if rest == "" {
			if p.i < len(p.lines) && p.lines[p.i].indent > indent {
				v, err := p.parseBlock()
				if err != nil {
					return nil, err
				}
				m[key] = v
			} else {
				m[key] = nil
			}
			continue
		}
		v, err := scalarOrFlow(rest, ln.num)
		if err != nil {
			return nil, err
		}
		m[key] = v
	}
	return m, nil
}

// parseSeq parses `- item` entries at exactly the given indent.
func (p *yparser) parseSeq(indent int) (any, error) {
	out := []any{}
	for p.i < len(p.lines) {
		ln := p.lines[p.i]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, &Error{Line: ln.num, Msg: fmt.Sprintf("unexpected indentation in sequence (want column %d, got %d)", indent+1, ln.indent+1)}
		}
		if !isSeqItem(ln.text) {
			return nil, &Error{Line: ln.num, Msg: "expected a '- ' list item"}
		}
		if ln.text == "-" {
			p.i++
			if p.i < len(p.lines) && p.lines[p.i].indent > indent {
				v, err := p.parseBlock()
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			} else {
				out = append(out, nil)
			}
			continue
		}
		content := strings.TrimLeft(ln.text[1:], " ")
		contentCol := ln.indent + len(ln.text) - len(content)
		if hasKey(content) {
			// A `- key: value` item: rewrite the line as the first entry
			// of a nested mapping at the content column, then parse the
			// mapping (its continuation lines sit at that column).
			p.lines[p.i] = yamlLine{num: ln.num, indent: contentCol, text: content}
			v, err := p.parseMap(contentCol)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
			continue
		}
		p.i++
		v, err := scalarOrFlow(content, ln.num)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// keySplit finds the colon ending a mapping key: the first ':' outside
// quotes that is followed by a space or ends the text. Returns -1 when
// absent.
func keySplit(text string) int {
	var inSingle, inDouble bool
	for i := 0; i < len(text); i++ {
		switch c := text[i]; {
		case c == '\'' && !inDouble:
			inSingle = !inSingle
		case c == '"' && !inSingle:
			inDouble = !inDouble
		case c == ':' && !inSingle && !inDouble:
			if i == len(text)-1 || text[i+1] == ' ' {
				return i
			}
		}
	}
	return -1
}

// hasKey reports whether text starts a mapping entry.
func hasKey(text string) bool { return keySplit(text) >= 0 }

// splitKey splits a mapping line into its key and the trimmed remainder.
func splitKey(ln yamlLine) (key, rest string, err error) {
	i := keySplit(ln.text)
	if i < 0 {
		return "", "", &Error{Line: ln.num, Msg: fmt.Sprintf("expected 'key: value', got %q", ln.text)}
	}
	key = strings.TrimSpace(ln.text[:i])
	if k, ok := unquote(key); ok {
		key = k
	}
	if key == "" {
		return "", "", &Error{Line: ln.num, Msg: "empty mapping key"}
	}
	return key, strings.TrimSpace(ln.text[i+1:]), nil
}

// scalarOrFlow parses a scalar value or a flow sequence of scalars.
func scalarOrFlow(s string, num int) (any, error) {
	if strings.HasPrefix(s, "{") {
		return nil, &Error{Line: num, Msg: "flow mappings {...} are not supported (use block mapping lines)"}
	}
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return nil, &Error{Line: num, Msg: "unterminated flow sequence (missing ']')"}
		}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		if inner == "" {
			return []any{}, nil
		}
		if strings.ContainsAny(inner, "[]{}") {
			return nil, &Error{Line: num, Msg: "nested flow collections are not supported"}
		}
		parts := strings.Split(inner, ",")
		out := make([]any, 0, len(parts))
		for _, part := range parts {
			v, err := scalar(strings.TrimSpace(part), num)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	return scalar(s, num)
}

// unquote strips matching single or double quotes, reporting whether the
// string was quoted. Double quotes honor Go escape sequences; inside
// single quotes, two single quotes in a row stand for one, as in YAML.
func unquote(s string) (string, bool) {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		if u, err := strconv.Unquote(s); err == nil {
			return u, true
		}
		return s[1 : len(s)-1], true
	}
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), true
	}
	return s, false
}

// scalar parses one scalar token.
func scalar(s string, num int) (any, error) {
	if u, ok := unquote(s); ok {
		return u, nil
	}
	switch s {
	case "", "null", "~":
		return nil, nil
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	return s, nil
}

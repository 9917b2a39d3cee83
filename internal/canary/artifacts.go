package canary

import (
	"archive/zip"
	"bytes"
	"fmt"
	"io"
	"regexp"
	"strings"
)

// Word (DOCX) artifacts. A DOCX is a zip of XML parts; like real canary
// documents, ours plants the trigger URL as an external relationship
// (the "remote template" trick): any consumer that resolves external
// references on open fetches the URL and thereby reveals itself.

const docxContentTypes = `<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">
  <Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>
  <Default Extension="xml" ContentType="application/xml"/>
  <Override PartName="/word/document.xml" ContentType="application/vnd.openxmlformats-officedocument.wordprocessingml.document.main+xml"/>
</Types>`

const docxRels = `<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">
  <Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" Target="word/document.xml"/>
</Relationships>`

// WordMIME is the DOCX content type used when posting the artifact.
const WordMIME = "application/vnd.openxmlformats-officedocument.wordprocessingml.document"

// PDFMIME is the PDF content type used when posting the artifact.
const PDFMIME = "application/pdf"

// WordDocument renders a DOCX whose document-relationships part carries
// the token's trigger URL as an external target, and whose visible text
// is the provided body.
func WordDocument(t Token, body string) ([]byte, error) {
	if t.Kind != KindWord {
		return nil, fmt.Errorf("canary: WordDocument needs a word token, got %s", t.Kind)
	}
	documentXML := fmt.Sprintf(`<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<w:document xmlns:w="http://schemas.openxmlformats.org/wordprocessingml/2006/main">
  <w:body><w:p><w:r><w:t>%s</w:t></w:r></w:p></w:body>
</w:document>`, xmlEscape(body))
	documentRels := fmt.Sprintf(`<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">
  <Relationship Id="rId100" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/attachedTemplate" Target="%s" TargetMode="External"/>
</Relationships>`, xmlEscape(t.TriggerURL))

	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	parts := []struct{ name, data string }{
		{"[Content_Types].xml", docxContentTypes},
		{"_rels/.rels", docxRels},
		{"word/document.xml", documentXML},
		{"word/_rels/document.xml.rels", documentRels},
	}
	for _, p := range parts {
		w, err := zw.Create(p.name)
		if err != nil {
			return nil, fmt.Errorf("canary: zip %s: %w", p.name, err)
		}
		if _, err := io.WriteString(w, p.data); err != nil {
			return nil, fmt.Errorf("canary: zip %s: %w", p.name, err)
		}
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("canary: close zip: %w", err)
	}
	return buf.Bytes(), nil
}

// ExternalRefsFromWord parses a DOCX and returns every external
// relationship target — what a document consumer resolves on open. This
// is also what the honeypot's malicious bot calls to "open" the file.
func ExternalRefsFromWord(data []byte) ([]string, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("canary: not a zip container: %w", err)
	}
	var refs []string
	for _, f := range zr.File {
		if !strings.HasSuffix(f.Name, ".rels") {
			continue
		}
		rc, err := f.Open()
		if err != nil {
			return nil, fmt.Errorf("canary: open part %s: %w", f.Name, err)
		}
		blob, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("canary: read part %s: %w", f.Name, err)
		}
		refs = append(refs, externalTargets(string(blob))...)
	}
	return refs, nil
}

var relPattern = regexp.MustCompile(`Target="([^"]+)"[^>]*TargetMode="External"`)

func externalTargets(relsXML string) []string {
	var out []string
	for _, m := range relPattern.FindAllStringSubmatch(relsXML, -1) {
		out = append(out, xmlUnescape(m[1]))
	}
	return out
}

// PDFDocument renders a minimal single-page PDF whose page carries a
// URI action pointing at the trigger URL — the standard canary-PDF
// construction. Viewers (and scrapers) that resolve link actions fetch
// the URL.
func PDFDocument(t Token, body string) ([]byte, error) {
	if t.Kind != KindPDF {
		return nil, fmt.Errorf("canary: PDFDocument needs a pdf token, got %s", t.Kind)
	}
	content := fmt.Sprintf("BT /F1 12 Tf 72 720 Td (%s) Tj ET", pdfEscape(body))
	objects := []string{
		"<< /Type /Catalog /Pages 2 0 R >>",
		"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
		"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 4 0 R /Annots [5 0 R] >>",
		fmt.Sprintf("<< /Length %d >>\nstream\n%s\nendstream", len(content), content),
		fmt.Sprintf("<< /Type /Annot /Subtype /Link /Rect [0 0 612 792] /A << /S /URI /URI (%s) >> >>", pdfEscape(t.TriggerURL)),
	}
	var buf bytes.Buffer
	buf.WriteString("%PDF-1.4\n")
	offsets := make([]int, len(objects)+1)
	for i, obj := range objects {
		offsets[i+1] = buf.Len()
		fmt.Fprintf(&buf, "%d 0 obj\n%s\nendobj\n", i+1, obj)
	}
	xref := buf.Len()
	fmt.Fprintf(&buf, "xref\n0 %d\n0000000000 65535 f \n", len(objects)+1)
	for i := 1; i <= len(objects); i++ {
		fmt.Fprintf(&buf, "%010d 00000 n \n", offsets[i])
	}
	fmt.Fprintf(&buf, "trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n", len(objects)+1, xref)
	return buf.Bytes(), nil
}

var pdfURIPattern = regexp.MustCompile(`/URI\s*\(([^)]*)\)`)

// URIsFromPDF extracts every /URI action target from a PDF — the
// "open the document, resolve its links" step.
func URIsFromPDF(data []byte) []string {
	var out []string
	for _, m := range pdfURIPattern.FindAllSubmatch(data, -1) {
		out = append(out, pdfUnescape(string(m[1])))
	}
	return out
}

// The escapers are shared: a strings.Replacer is safe for concurrent
// use and is costly to build.
var (
	xmlEscaper   = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	xmlUnescaper = strings.NewReplacer("&amp;", "&", "&lt;", "<", "&gt;", ">", "&quot;", `"`)
	pdfEscaper   = strings.NewReplacer(`\`, `\\`, "(", `\(`, ")", `\)`)
	pdfUnescaper = strings.NewReplacer(`\(`, "(", `\)`, ")", `\\`, `\`)
)

func xmlEscape(s string) string   { return xmlEscaper.Replace(s) }
func xmlUnescape(s string) string { return xmlUnescaper.Replace(s) }
func pdfEscape(s string) string   { return pdfEscaper.Replace(s) }
func pdfUnescape(s string) string { return pdfUnescaper.Replace(s) }

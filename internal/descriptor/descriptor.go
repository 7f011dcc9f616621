// Package descriptor implements the XML executable descriptor of the
// paper's generic wrapper service (Sec. 3.6, Fig. 8).
//
// A descriptor is a complete-enough description of a legacy command-line
// code that the wrapper can compose the actual command line dynamically at
// invocation time: the executable and how to fetch it, sandboxed companion
// files (scripts, dynamic libraries), the command-line option of every
// input file, input parameter and output file, and the access method
// (URL, GFN, local) of each file. Writing this descriptor is the only work
// an application developer must do to make a legacy code service-aware —
// and because the workflow enactor can read descriptors, it can compose the
// command lines of several codes into a single grid job (job grouping).
package descriptor

import (
	"encoding/xml"
	"fmt"
	"strings"
)

// AccessType says how a file is fetched or registered.
type AccessType string

// Access methods supported by the wrapper (paper Sec. 3.6, item 1).
const (
	// URL: fetched from a web server (executables, sandboxes).
	URL AccessType = "URL"
	// GFN: a Grid File Name resolved through the replica catalog.
	GFN AccessType = "GFN"
	// Local: a file already present on the execution host.
	Local AccessType = "local"
)

// Access is an access method, optionally with the server path the file is
// fetched from.
type Access struct {
	Type AccessType `xml:"type,attr"`
	Path *Path      `xml:"path"`
}

// Path is the location element nested inside an access method.
type Path struct {
	Value string `xml:"value,attr"`
}

// ValueElem is the <value value="..."/> element naming a concrete file.
type ValueElem struct {
	Value string `xml:"value,attr"`
}

// Input is a command-line input: a file (when Access is set) or a plain
// parameter (no access method, paper Sec. 3.6 item 4).
type Input struct {
	Name   string  `xml:"name,attr"`
	Option string  `xml:"option,attr"`
	Access *Access `xml:"access"`
}

// IsFile reports whether the input denotes a file to stage (rather than a
// literal parameter).
func (in Input) IsFile() bool { return in.Access != nil }

// Output is a produced file: its command-line option and the access method
// used to register it after execution.
type Output struct {
	Name   string  `xml:"name,attr"`
	Option string  `xml:"option,attr"`
	Access *Access `xml:"access"`
}

// Sandbox is a companion file needed at execution time that does not
// appear on the command line (scripts, dynamic libraries).
type Sandbox struct {
	Name   string     `xml:"name,attr"`
	Access *Access    `xml:"access"`
	Value  *ValueElem `xml:"value"`
}

// Executable describes the legacy code itself.
type Executable struct {
	Name      string     `xml:"name,attr"`
	Access    *Access    `xml:"access"`
	Value     *ValueElem `xml:"value"`
	Inputs    []Input    `xml:"input"`
	Outputs   []Output   `xml:"output"`
	Sandboxes []Sandbox  `xml:"sandbox"`
}

// Description is the document root.
type Description struct {
	XMLName    xml.Name   `xml:"description"`
	Executable Executable `xml:"executable"`
}

// Parse decodes a descriptor document and validates it.
func Parse(data []byte) (*Description, error) {
	var d Description
	if err := xml.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("descriptor: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Marshal encodes the descriptor as indented XML.
//
//moteur:keep round-trip oracle: the descriptor tests re-parse what it writes
func (d *Description) Marshal() ([]byte, error) {
	out, err := xml.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("descriptor: %w", err)
	}
	return out, nil
}

// Validate checks structural completeness: a named executable, uniquely
// named inputs/outputs/sandboxes, options on all command-line arguments,
// and access methods on outputs and sandboxes.
func (d *Description) Validate() error {
	e := &d.Executable
	if e.Name == "" {
		return fmt.Errorf("descriptor: executable has no name")
	}
	names := make(map[string]string)
	claim := func(kind, name string) error {
		if name == "" {
			return fmt.Errorf("descriptor %s: %s with empty name", e.Name, kind)
		}
		if prev, dup := names[name]; dup {
			return fmt.Errorf("descriptor %s: name %q used by both %s and %s", e.Name, name, prev, kind)
		}
		names[name] = kind
		return nil
	}
	for _, in := range e.Inputs {
		if err := claim("input", in.Name); err != nil {
			return err
		}
		if in.Option == "" {
			return fmt.Errorf("descriptor %s: input %q has no command-line option", e.Name, in.Name)
		}
	}
	for _, out := range e.Outputs {
		if err := claim("output", out.Name); err != nil {
			return err
		}
		if out.Option == "" {
			return fmt.Errorf("descriptor %s: output %q has no command-line option", e.Name, out.Name)
		}
		if out.Access == nil {
			return fmt.Errorf("descriptor %s: output %q has no access method", e.Name, out.Name)
		}
	}
	for _, sb := range e.Sandboxes {
		if err := claim("sandbox", sb.Name); err != nil {
			return err
		}
		if sb.Access == nil {
			return fmt.Errorf("descriptor %s: sandbox %q has no access method", e.Name, sb.Name)
		}
	}
	return nil
}

// InputNames returns the declared input names in order.
func (d *Description) InputNames() []string {
	out := make([]string, len(d.Executable.Inputs))
	for i, in := range d.Executable.Inputs {
		out[i] = in.Name
	}
	return out
}

// OutputNames returns the declared output names in order.
func (d *Description) OutputNames() []string {
	out := make([]string, len(d.Executable.Outputs))
	for i, o := range d.Executable.Outputs {
		out[i] = o.Name
	}
	return out
}

// Input returns the named input declaration.
func (d *Description) Input(name string) (Input, bool) {
	for _, in := range d.Executable.Inputs {
		if in.Name == name {
			return in, true
		}
	}
	return Input{}, false
}

// Bindings carries the actual values bound at invocation time: input files
// and parameters by input name, and the output file names the wrapper
// chose for this invocation.
type Bindings struct {
	Inputs  map[string]string
	Outputs map[string]string
}

// CommandLine composes the actual command line from the descriptor and the
// bindings, in declaration order — the dynamic composition the paper's
// wrapper performs at service invocation time. Every declared input and
// output must be bound.
func (d *Description) CommandLine(b Bindings) (string, error) {
	e := &d.Executable
	var parts []string
	parts = append(parts, e.Name)
	for _, in := range e.Inputs {
		v, ok := b.Inputs[in.Name]
		if !ok {
			return "", fmt.Errorf("descriptor %s: input %q not bound", e.Name, in.Name)
		}
		parts = append(parts, in.Option, v)
	}
	for _, out := range e.Outputs {
		v, ok := b.Outputs[out.Name]
		if !ok {
			return "", fmt.Errorf("descriptor %s: output %q not bound", e.Name, out.Name)
		}
		parts = append(parts, out.Option, v)
	}
	return strings.Join(parts, " "), nil
}

// StageIns returns the catalog names of the files that must be transferred
// to the worker node for this invocation: every bound input whose access
// method is GFN. URL-accessed files (executable, sandboxes) are fetched
// from their web server and are accounted separately.
func (d *Description) StageIns(b Bindings) ([]string, error) {
	var files []string
	for _, in := range d.Executable.Inputs {
		if !in.IsFile() {
			continue
		}
		v, ok := b.Inputs[in.Name]
		if !ok {
			return nil, fmt.Errorf("descriptor %s: input %q not bound", d.Executable.Name, in.Name)
		}
		if in.Access.Type == GFN {
			files = append(files, v)
		}
	}
	return files, nil
}

// Compose joins the command lines of several invocations into the single
// command executed by a grouped job, in sequence.
func Compose(commands ...string) string {
	return strings.Join(commands, " && ")
}

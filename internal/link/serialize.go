package link

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"confllvm/internal/codegen"
)

// imageFile is the on-disk representation of an Image (gob-encoded).
// It carries no Layout: the layout is a pure function of Config
// (LayoutFor), so Load derives it instead of trusting bytes from disk.
// gob skips stream fields the struct lacks, so images written with a
// Layout field still load, and that field is ignored.
type imageFile struct {
	Magic       string
	Code        []byte
	Funcs       []FuncSym
	PubData     []byte
	PrivData    []byte
	Symbols     map[string]uint64
	Externals   []string
	MCallPrefix uint64
	MRetPrefix  uint64
	Config      codegen.Config
	ExitShim    [2]uint64
	MagicOffs   []int
}

const imageMagic = "CONFLLVM-IMG-1"

// Save writes the image to w.
func (img *Image) Save(w io.Writer) error {
	f := imageFile{
		Magic:       imageMagic,
		Code:        img.Code,
		PubData:     img.PubData,
		PrivData:    img.PrivData,
		Symbols:     img.Symbols,
		Externals:   img.Externals,
		MCallPrefix: img.MCallPrefix,
		MRetPrefix:  img.MRetPrefix,
		Config:      img.Config,
		ExitShim:    img.ExitShim,
	}
	for _, fs := range img.Funcs {
		f.Funcs = append(f.Funcs, *fs)
	}
	for off := range img.magicOffsets {
		f.MagicOffs = append(f.MagicOffs, off)
	}
	return gob.NewEncoder(w).Encode(&f)
}

// Load reads an image written by Save.
func Load(r io.Reader) (*Image, error) {
	var f imageFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("link: corrupt image: %w", err)
	}
	if f.Magic != imageMagic {
		return nil, fmt.Errorf("link: not a ConfLLVM image")
	}
	img := &Image{
		Code:         f.Code,
		PubData:      f.PubData,
		PrivData:     f.PrivData,
		Symbols:      f.Symbols,
		Externals:    f.Externals,
		MCallPrefix:  f.MCallPrefix,
		MRetPrefix:   f.MRetPrefix,
		Layout:       LayoutFor(f.Config),
		Config:       f.Config,
		ExitShim:     f.ExitShim,
		byName:       map[string]*FuncSym{},
		magicOffsets: map[int]bool{},
	}
	for i := range f.Funcs {
		fs := f.Funcs[i]
		img.Funcs = append(img.Funcs, &fs)
		img.byName[fs.Name] = &fs
	}
	for _, off := range f.MagicOffs {
		img.magicOffsets[off] = true
	}
	return img, nil
}

// SaveFile writes the image to path.
func (img *Image) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := img.Save(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// LoadFile reads an image from path.
func LoadFile(path string) (*Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Load(bytes.NewReader(data))
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// profile is the part of a pprof profile the benchmark folds: each
// sample's stack as function names, leaf first, with inlined frames
// expanded, and its values in the profile's sample-type order.
type profile struct {
	samples []sample
}

type sample struct {
	stack  []string
	values []int64
}

// Field numbers of the profile.proto messages read here.
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileStrings  = 6

	fieldSampleLocation = 1
	fieldSampleValue    = 2

	fieldLocationID   = 1
	fieldLocationLine = 4
	fieldLineFunction = 1

	fieldFunctionID   = 1
	fieldFunctionName = 2
)

// parseProfile decodes a gzipped profile.proto message as runtime/pprof
// writes it.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples []rawSample
	)
	err = eachField(raw, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case fieldProfileSample:
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case fieldSampleLocation:
					s.locs, err = appendVarints(s.locs, wire, v, b)
				case fieldSampleValue:
					var vs []uint64
					vs, err = appendVarints(nil, wire, v, b)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			samples = append(samples, s)
			return err
		case fieldProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == fieldLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case fieldProfileFunction:
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case fieldProfileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, rs := range samples {
		s := sample{values: rs.values}
		for _, l := range rs.locs {
			for _, fn := range locs[l] {
				name := "?"
				if i := funcs[fn]; i < uint64(len(strs)) {
					name = strs[i]
				}
				s.stack = append(s.stack, name)
			}
		}
		if len(s.stack) > 0 && len(s.values) > 0 {
			p.samples = append(p.samples, s)
		}
	}
	return p, nil
}

// eachField calls f for every field of a protobuf message: v carries a
// varint or fixed-width value, b a length-delimited one.
func eachField(msg []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("protobuf: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var (
			v uint64
			b []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("protobuf: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("protobuf: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("protobuf: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("protobuf: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("protobuf: wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("protobuf: bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

package dht

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"
)

// TestResetFrameLeavesOnlyCapacity fills every field of an opFrame, by
// reflection, with non-zero values, resets it, and checks, by reflection
// again, that the frame is zero except for the capacity its slices keep,
// and that no kept array still references anything (a frame returns
// emptied, never holding a caller's key, value or error). Walking the type
// rather than naming fields means a field added later is filled and
// checked too.
func TestResetFrameLeavesOnlyCapacity(t *testing.T) {
	f := new(opFrame)
	fillFrame(t, reflect.ValueOf(f).Elem())
	f.reset()
	checkReset(t, "opFrame", reflect.ValueOf(f).Elem())
}

// fillFrame sets v, and everything it holds, to a non-zero value; slices
// get two filled elements.
func fillFrame(t *testing.T, v reflect.Value) {
	t.Helper()
	v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem() // unexported fields too
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			fillFrame(t, v.Field(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			fillFrame(t, v.Index(i))
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := range s.Len() {
			fillFrame(t, s.Index(i))
		}
		v.Set(s)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fillFrame(t, p.Elem())
		v.Set(p)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(1)
	case reflect.String:
		v.SetString("filled")
	case reflect.Interface:
		errFilled := reflect.ValueOf(errors.New("filled"))
		if !errFilled.Type().AssignableTo(v.Type()) {
			t.Fatalf("no filler for interface %s", v.Type())
		}
		v.Set(errFilled)
	default:
		t.Fatalf("no filler for %s", v.Type())
	}
}

// checkReset fails unless v is zero, where a slice may keep capacity but
// not length, and a kept array whose elements hold references holds zeros.
func checkReset(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			checkReset(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			checkReset(t, path, v.Index(i))
		}
	case reflect.Slice:
		if v.Len() != 0 {
			t.Fatalf("%s keeps %d elements after reset", path, v.Len())
		}
		if !holdsReferences(v.Type().Elem()) {
			return
		}
		kept := v.Slice(0, v.Cap())
		for i := range kept.Len() {
			if !kept.Index(i).IsZero() {
				t.Fatalf("%s's kept array still references something at %d", path, i)
			}
		}
	default:
		if !v.IsZero() {
			t.Fatalf("%s is not zero after reset", path)
		}
	}
}

// holdsReferences reports whether a value of type typ can keep memory alive.
func holdsReferences(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return holdsReferences(typ.Elem())
	case reflect.Struct:
		for i := range typ.NumField() {
			if holdsReferences(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.UnsafePointer:
		return true
	}
	return false
}

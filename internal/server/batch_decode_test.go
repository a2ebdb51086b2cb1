package server

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestLaneOverridesDecode checks that a /batch lane decodes straight into
// fact ids exactly as decoding by string key and converting with overrides
// does: same ids and values, a bad key failing the lane alone, and a
// malformed lane failing the whole body.
func TestLaneOverridesDecode(t *testing.T) {
	cases := []struct {
		lane    string
		fast    bool // parseLane handles it without the fallback
		laneErr bool
		bodyErr bool
	}{
		{lane: `{}`, fast: true},
		{lane: `{"0":0.5}`, fast: true},
		{lane: ` { "1" : 1e-3 , "12":-0.25,"3":1E2 } `, fast: true},
		{lane: "{\n\t\"7\":\t0.125\r\n}", fast: true},
		{lane: `{"1":0.2,"1":0.4}`, fast: true},
		{lane: `{"+4":0.5,"-2":0.5,"007":0.5}`, fast: true},
		{lane: `{"nope":0.5}`, laneErr: true},
		{lane: `{"1.5":0.5}`, laneErr: true},
		{lane: `{"\u0031":0.5}`},
		{lane: `{"1":null}`},
		{lane: `null`},
		{lane: `{"1":"x"}`, bodyErr: true},
		{lane: `{"1":true}`, bodyErr: true},
		{lane: `{"1":1e400}`, bodyErr: true},
		{lane: `[1]`, bodyErr: true},
	}
	// parseLane sees only values the decoder validated, but must not fault
	// on a truncated one.
	for _, cut := range []string{``, `{`, `{"1`, `{"1"`, `{"1":`, `{"1":0.5`, `{"1":0.5,`} {
		if _, ok := parseLane([]byte(cut)); ok {
			t.Errorf("parseLane accepted the truncated lane %q", cut)
		}
	}
	for _, tc := range cases {
		var got struct {
			Assignments []laneOverrides `json:"assignments"`
		}
		err := json.Unmarshal([]byte(`{"assignments":[`+tc.lane+`]}`), &got)
		if tc.bodyErr {
			if err == nil {
				t.Errorf("%s: body decoded, want an error", tc.lane)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.lane, err)
			continue
		}
		if _, ok := parseLane([]byte(tc.lane)); ok != tc.fast {
			t.Errorf("%s: parseLane handled it = %v, want %v", tc.lane, ok, tc.fast)
		}
		lane := got.Assignments[0]
		var raw map[string]float64
		if err := json.Unmarshal([]byte(tc.lane), &raw); err != nil {
			t.Fatalf("%s: reference decode: %v", tc.lane, err)
		}
		want, wantErr := overrides(raw)
		if (lane.err != nil) != tc.laneErr || (wantErr != nil) != tc.laneErr {
			t.Errorf("%s: lane error %v (reference %v), want error %v", tc.lane, lane.err, wantErr, tc.laneErr)
			continue
		}
		if !tc.laneErr && len(lane.ids)+len(want) > 0 && !reflect.DeepEqual(lane.ids, want) {
			t.Errorf("%s: ids %v, want %v", tc.lane, lane.ids, want)
		}
	}
}

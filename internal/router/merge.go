package router

import "tcstudy/internal/api"

// Record and MergeRecords are the wire package's api.Record and api.Merge
// under the names bench/ — which a PR may not edit — compiles against.
// They are the only two residual names; new code uses internal/api.
type Record = api.Record

// MergeRecords folds per-shard records into one fleet record.
func MergeRecords(records []Record) Record { return api.Merge(records) }

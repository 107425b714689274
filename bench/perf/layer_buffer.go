package main

import (
	"mptcpgo/internal/buffer"
	"mptcpgo/internal/pool"
)

var bufferDrivers = []driver{
	{ns: "buffer.bytequeue_fresh16k_ns", allocB: "buffer.bytequeue_fresh16k_alloc_b", ops: 2_000, run: bufferFresh16k},
	{ns: "buffer.bytequeue_steady_ns", ops: 100_000, run: bufferSteady},
	{ns: "buffer.ofo_insert_ns", ops: 400_000, run: bufferOfoInsert},
}

var mssPayload = make([]byte, 1460)

// bufferFresh16k is a short flow's queue life: a new ByteQueue grows from nil
// to 16 KiB one MSS at a time and is drained once. One operation is one
// queue.
func bufferFresh16k(n int) (int, error) {
	for i := 0; i < n; i++ {
		q := buffer.NewByteQueue(0)
		for q.Len() < 16<<10 {
			q.Append(mssPayload)
		}
		for q.Len() > 0 {
			q.Pop(4096)
		}
	}
	return n, nil
}

// bufferSteady is a long flow's queue life: a warmed ByteQueue holding about
// 64 KiB takes one MSS in and gives one MSS out.
func bufferSteady(n int) (int, error) {
	q := buffer.NewByteQueue(0)
	for q.Len() < 64<<10 {
		q.Append(mssPayload)
	}
	for i := 0; i < n; i++ {
		q.Append(mssPayload)
		q.Pop(len(mssPayload))
	}
	return n, nil
}

// bufferOfoInsert feeds the default reassembly algorithm the arrival order
// of a two-subflow connection whose slow subflow holds up the trailing edge:
// data is allotted in 64-segment batches, the fast subflow's batches arrive
// first, then the slow subflow's backlog. One operation is one Insert with
// the PopContiguous that follows it.
func bufferOfoInsert(n int) (int, error) {
	const round = 4096 // segments per queue lifetime
	const batch = 64
	items := make([]buffer.Item, 0, round)
	var slow []buffer.Item
	for i := 0; i < round; i++ {
		it := buffer.Item{Seq: uint64(i) * 1460, Data: mssPayload, Subflow: i / batch % 2}
		if it.Subflow == 0 {
			slow = append(slow, it)
		} else {
			items = append(items, it)
		}
	}
	items = append(items, slow...)

	done := 0
	for done < n {
		q := buffer.NewOfoQueue(buffer.AlgAllShortcuts)
		var next uint64
		for _, it := range items {
			q.Insert(it)
			for _, out := range q.PopContiguous(next) {
				next = out.End()
				pool.Recycle(out.Data)
			}
		}
		done += len(items)
	}
	return done, nil
}

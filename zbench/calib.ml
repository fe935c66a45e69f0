(* The host-speed probe.  A fixed computation that uses nothing of the
   rewriter, allocates nothing and keeps its data in a 16 KiB array, so
   neither the rewriter's heap nor what it left in the caches changes
   it: pseudo-random read-modify-writes driven by a linear congruential
   generator, which take as long as the CPU time the host gives this
   process at the moment.  Runs sample it between operations; its median
   time says how fast the host was while they measured. *)

let words = 1 lsl 11
let buf = Array.make words 0

let kernel () =
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 400_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = (!x lsr 7) land (words - 1) in
    let v = Array.unsafe_get buf i + !x in
    Array.unsafe_set buf i v;
    acc := !acc lxor v
  done;
  !acc

let sink = ref 0

(* Seconds of one run of the kernel. *)
let sample () =
  let t0 = Common.now () in
  sink := !sink lxor kernel ();
  Common.now () -. t0

(* The samples of one run; [tick] takes one once [every] seconds have
   passed since the last. *)
type t = {
  every : float;
  mutable last : float;  (** when the last sample ended *)
  mutable samples : float list;
  mutable spent : float;  (** seconds spent sampling *)
}

let create ~every = { every; last = Common.now (); samples = []; spent = 0.0 }

let take t =
  let now = Common.now () in
  t.samples <- sample () :: t.samples;
  t.last <- Common.now ();
  t.spent <- t.spent +. (t.last -. now)

(* The caller calls it between operations. *)
let tick t = if Common.now () -. t.last >= t.every then take t

(* The median of [n] runs of [f] (a time in seconds), each after a
   sample. *)
let paired t n f =
  Common.median
    (List.init n (fun _ ->
         take t;
         f ()))

let median_ms t = 1e3 *. Common.median t.samples

(* The reference host is one on which the probe takes this long.  On a
   shared 2-core 2.1 GHz Xeon virtual machine its median per run ranged
   from 0.80 to 0.98 ms. *)
let reference_ms = 1.0

(* The timing metrics of a run at the reference host's speed: times
   scaled by [reference_ms] over the run's probe median, rates the other
   way round.  Also the same as measured, and the probe median, for the
   table. *)
let timing_metrics ~setup:(setup_s, setup_note) ~probe ~p50:(p50, p50_note) ~ops ~wall ~what =
  let probe_ms = median_ms probe in
  let time x = x *. reference_ms /. probe_ms and rate = float_of_int ops /. wall in
  let m = Common.metric in
  let note = Printf.sprintf "%s; at the reference host speed" in
  let e2e =
    [
      m ~note:(note setup_note) "setup_s" "s" (time setup_s);
      m ~note:(note p50_note) "latency_p50_ms" "ms" (time p50);
      m
        ~note:(note (Printf.sprintf "%d %s in %.2f s" ops what wall))
        "ops_per_s" "1/s"
        (rate *. probe_ms /. reference_ms);
    ]
  and measured =
    [
      m ~note:"as measured" "raw.setup_s" "s" setup_s;
      m ~note:"as measured" "raw.latency_p50_ms" "ms" p50;
      m ~note:"as measured" "raw.ops_per_s" "1/s" rate;
      m
        ~note:(Printf.sprintf "median of %d samples" (List.length probe.samples))
        "host.probe_ms" "ms" probe_ms;
    ]
  in
  (e2e, measured)

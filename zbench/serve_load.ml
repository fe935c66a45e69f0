(* serve-mix: a closed loop of one client, in this process, against a
   separate [ziprtool serve --delta] daemon (OCaml 5 minor collections
   stop every domain of a process, so an in-process load generator would
   pause the server).  Every request asks for the stack-pad then the CFI
   transform.  The request stream mixes three kinds:

   - successive versions of [Workloads.Versioned] binaries: delta
     stitch reads plus fragment harvest writes;
   - repeats of inputs already sent: memo hits;
   - first-touch scale corpus members: cold builds. *)

module Rng = Zipr_util.Rng
module P = Serve.Protocol

let transform_names = [ "stack-pad"; "cfi" ]
let transforms = List.filter_map Transforms.Registry.by_name transform_names

(* Stream shape.  The first [warmup] requests only introduce new inputs;
   they are sent before the timed window and fill the daemon's whole-IR
   memo (256 entries), so the window runs with every cache at its entry
   bound.  In the window, slots 0, 8, 16, 32 and 48 of every 64 requests
   introduce the next input and every other slot repeats one drawn
   uniformly from the [recent] most recently introduced.  Introductions
   alternate four versions of the versioned families (round robin) with
   one scale member. *)
let warmup = 256
let period = 64
let intro_slots = [ 0; 8; 16; 32; 48 ]
let recent = 128
let families = 32

(* Requests per second the stream is sized for; a faster server runs out
   of stream, and the run says so. *)
let max_rate = 200.0

(* Size and run-time overhead are averaged over this many inputs, the
   first ones the stream introduces. *)
let overhead_sample = 128

(* Scale members drawn for first touches.  A fixed draw keeps the
   introduction sequence, and so the overhead sample, the same whatever
   the window length. *)
let scale_pool = 160

type input = { m : Members.t; mutable reference : Reference.t }
type stream = { inputs : input array; order : int array (* input id per request *) }

let reference_config = Zipr.Pipeline.default_config

(* First-touch members come from every scale class but the CGC one: CGC
   profiles plant memory-corruption bugs, random bytes sometimes exploit
   them, and changing what an exploited overflow does is the point of
   stack-pad and CFI, so such a run of the original specifies nothing. *)
let pool_skip = [ "cgc" ]

(* [n] versions, round robin over the families: version k of family f
   comes after version k of every family before f. *)
let versioned ~seed ~n =
  let per_family = (n + families - 1) / families in
  let fams =
    Array.init families (fun f ->
        Workloads.Versioned.generate
          ~seed:(Rng.derive ~corpus_seed:seed ~index:(1000 + f))
          ~versions:per_family ()
        |> List.mapi (fun k (v : Workloads.Versioned.version) ->
               {
                 Members.name = Printf.sprintf "fam%d-%s" f v.name;
                 index = 100_000 + (f * 10_000) + k;
                 raw = Zelf.Binary.serialize v.binary;
               })
        |> Array.of_list)
  in
  List.init n (fun k -> fams.(k mod families).(k / families))

let make_stream ~seed ~requests =
  (* Candidate introductions, with some to spare for refusals. *)
  let n_intro = warmup + ((requests + period - 1) / period * List.length intro_slots) in
  let n_intro = n_intro + (n_intro / 16) in
  let versions = versioned ~seed ~n:n_intro in
  let scale =
    Members.scale ~skip:pool_skip
      ~seed:(Rng.derive ~corpus_seed:seed ~index:2000)
      ~n:scale_pool ()
  in
  let rec interleave k vs ss =
    match (vs, ss) with
    | _, s :: ss' when k mod 5 = 1 || vs = [] -> s :: interleave (k + 1) vs ss'
    | v :: vs', _ -> v :: interleave (k + 1) vs' ss
    | [], _ -> []
  in
  let candidates =
    Array.of_list (List.filteri (fun i _ -> i < n_intro) (interleave 0 versions scale))
  in
  (* Every candidate is rewritten offline before the daemon sees it: the
     ones the rewriter refuses are reported and left out. *)
  let screened =
    Common.parallel_map ~jobs:(Common.check_jobs ())
      (Reference.make ~dynamic:false ~config:reference_config ~transforms)
      candidates
  in
  Reference.report_refused ~workload:"serve-mix" ~drawn:(Array.length candidates)
    (List.filteri (fun i _ -> screened.(i) = None) (Array.to_list candidates));
  let inputs =
    Array.to_list (Array.map2 (fun m r -> (m, r)) candidates screened)
    |> List.filter_map (fun (m, r) -> Option.map (fun reference -> { m; reference }) r)
    |> Array.of_list
  in
  let next = ref 0 in
  let rng = Rng.create (Rng.derive ~corpus_seed:seed ~index:3000) in
  let order =
    Array.init (warmup + requests) (fun i ->
        let introduce = i < warmup || List.mem ((i - warmup) mod period) intro_slots in
        if introduce && !next < Array.length inputs then begin
          incr next;
          !next - 1
        end
        else !next - 1 - Rng.int rng (min recent !next))
  in
  { inputs; order }

(* -- the daemon -- *)

type daemon = { pid : int; addr : P.addr; log : string }

let live : daemon option ref = ref None

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Common.wait_pid d.pid);
  live := None;
  (match d.addr with P.Unix_path p -> (try Sys.remove p with Sys_error _ -> ()) | _ -> ());
  try Sys.remove d.log with Sys_error _ -> ()

let () = at_exit (fun () -> Option.iter stop_daemon !live)

(* Launch the daemon and wait for its first answered ping; returns the
   daemon and the launch-to-ready time.  One worker domain serves the one
   client: an idle second domain would only join every stop-the-world
   minor collection. *)
let launch ~ziprtool ~run_dir =
  let sock = Filename.concat run_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let log = Filename.concat run_dir (Printf.sprintf "serve-%d.log" (Unix.getpid ())) in
  (try Sys.remove sock with Sys_error _ -> ());
  let addr = P.Unix_path sock in
  let t0 = Common.now () in
  let pid =
    Common.spawn ~log [| ziprtool; "serve"; "--socket"; sock; "--delta"; "--jobs"; "1" |]
  in
  let d = { pid; addr; log } in
  live := Some d;
  let rec wait () =
    match Serve.Client.ping addr with
    | Ok { P.Response.status = P.Ok_; _ } -> Common.now () -. t0
    | _ ->
        if Common.now () -. t0 > 30.0 then failwith "serve-mix: daemon not ready after 30 s";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := None;
            failwith ("serve-mix: daemon exited during start-up; see " ^ log));
        Unix.sleepf 0.0002;
        wait ()
  in
  let ready = wait () in
  (d, ready)

(* -- the closed loop -- *)

type reply = {
  pos : int;  (** position in the stream *)
  latency_s : float;
  ok : bool;
  digest : Digest.t;  (** of the payload *)
  stats : (string * string) list;
}

let parse_stats text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.index_opt line '=' with
         | Some i -> Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
         | None -> None)

let stat r key = Option.value (List.assoc_opt key r.stats) ~default:""
let stat_int r key = Option.value (int_of_string_opt (stat r key)) ~default:0

(* Stream positions [first, last) until [deadline], from one client
   that sends its next request only once its previous one is answered.
   Between requests it samples [probe] while the daemon is idle. *)
let closed_loop ?probe (s : stream) addr ~first ~last ~deadline =
  let spent () = match probe with Some p -> p.Calib.spent | None -> 0.0 in
  let t0 = Common.now () and spent0 = spent () in
  let rec go pos replies =
    if Common.now () >= deadline then replies
    else if pos >= last then begin
      if deadline < infinity then
        Common.say "serve-mix: the request stream ran out before the deadline";
      replies
    end
    else begin
      Option.iter Calib.tick probe;
      let inp = s.inputs.(s.order.(pos)) in
      let t0 = Common.now () in
      let r =
        Serve.Client.rewrite ~id:(Int64.of_int pos) ~transforms:transform_names addr
          (Bytes.unsafe_to_string inp.m.raw)
      in
      let latency_s = Common.now () -. t0 in
      let failed why =
        Common.say "serve-mix: request %d (%s) %s" pos inp.m.name why;
        { pos; latency_s; ok = false; digest = ""; stats = [] }
      in
      let reply =
        match r with
        | Ok { P.Response.status = P.Ok_; payload; stats; _ } ->
            { pos; latency_s; ok = true; digest = Digest.string payload; stats = parse_stats stats }
        | Ok { P.Response.status; message; _ } ->
            failed (Printf.sprintf "answered %s: %s" (P.status_to_string status) message)
        | Error msg -> failed ("failed: " ^ msg)
      in
      go (pos + 1) (reply :: replies)
    end
  in
  let replies = List.rev (go first []) in
  (replies, Common.now () -. t0 -. (spent () -. spent0))

(* What the daemon did for a request, from its stats lines. *)
let kind r =
  if stat_int r "delta_builds" > 0 then `Stitched
  else if stat_int r "routine_hits" > 0 then `Memo_hit
  else if stat r "ir_cache" = "hit" then `Snapshot_hit
  else `Cold

let share ok k =
  Layers.ratio
    (float_of_int (List.length (List.filter (fun r -> kind r = k) ok)))
    (float_of_int (List.length ok))

(* The serve layer, parsed from each answered request: time queued in
   the daemon, time serving, and the rest of the round trip (transport,
   framing, connection set-up), as mean ms. *)
let serve_times ok =
  let mean_ms f = 1e3 *. Common.mean (List.map f ok) in
  let latency = mean_ms (fun r -> r.latency_s) in
  let queue = mean_ms (fun r -> float_of_int (stat_int r "queue_wait_us") /. 1e6) in
  let service = mean_ms (fun r -> float_of_int (stat_int r "elapsed_us") /. 1e6) in
  (latency, queue, service, latency -. queue -. service)

let layer_times ok =
  let _, queue, service, transport = serve_times ok in
  let m = Common.metric in
  [
    m "serve.queue_wait_ms" "ms" queue;
    m "serve.service_ms" "ms" service;
    m "serve.transport_ms" "ms" transport;
  ]

(* As shares of the mean round trip, and the shares of request kinds.
   The in-process workloads pass no replies: the layer does not exist
   there and every value reads 0. *)
let layer_metrics ok =
  let latency, queue, service, transport = serve_times ok in
  let pct x = 100.0 *. Layers.ratio x latency in
  let m = Common.metric in
  [
    m "serve.queue_wait_pct" "%" (pct queue);
    m "serve.service_pct" "%" (pct service);
    m "serve.transport_pct" "%" (pct transport);
    m "serve.memo_hit_ratio" "ratio" (share ok `Memo_hit);
    m "serve.stitch_ratio" "ratio" (share ok `Stitched);
    m "serve.cold_ratio" "ratio" (share ok `Cold);
  ]

(* -- checking -- *)

(* Runs the dynamic oracle on the overhead sample and on every input
   that was served, and checks every served payload against the offline
   rewrite of its input.  Returns the checked references and the number
   of failures. *)
let check_outputs (s : stream) replies =
  let wanted = Array.mapi (fun i _ -> i < overhead_sample) s.inputs in
  List.iter (fun r -> wanted.(s.order.(r.pos)) <- true) replies;
  let ids = List.filter (fun i -> wanted.(i)) (List.init (Array.length s.inputs) Fun.id) in
  let checked =
    Common.parallel_map ~jobs:(Common.check_jobs ())
      (fun i -> Reference.with_dynamic s.inputs.(i).m s.inputs.(i).reference)
      (Array.of_list ids)
  in
  List.iteri (fun k i -> s.inputs.(i).reference <- checked.(k)) ids;
  let refs = Array.to_list checked in
  let failed = ref (Reference.failed_checks refs) in
  List.iter
    (fun r ->
      let inp = s.inputs.(s.order.(r.pos)) in
      if r.ok && r.digest <> Digest.bytes inp.reference.output then begin
        incr failed;
        Common.say "MISMATCH %s: daemon payload differs from the offline rewrite" inp.m.name
      end)
    replies;
  (refs, !failed)

(* References of the overhead sample: the first inputs introduced. *)
let sampled (s : stream) =
  List.init (min overhead_sample (Array.length s.inputs)) (fun i -> s.inputs.(i).reference)

(* Applying cfi before stack-pad yields binaries that fault on every
   input.  The workload asks for the working order, so that no operation
   of it fails; every run also rewrites its first input in the other
   order and says whether the defect still stands.  That rewrite is not
   an operation of the workload and does not count in [failed]. *)
let recheck_order_defect (s : stream) =
  let m = s.inputs.(0).m in
  let order = List.filter_map Transforms.Registry.by_name [ "cfi"; "stack-pad" ] in
  let status =
    match Reference.make ~quiet:true ~config:reference_config ~transforms:order m with
    | Some r when Oracle.passed r.verdict -> "now passes: the defect is gone"
    | Some _ -> "still fails the oracle"
    | None -> "refused by the rewriter"
  in
  Common.say "known defect: transforms cfi then stack-pad on %s: %s" m.name status

(* -- the replay of the traced run -- *)

(* Fresh caches sized like the daemon's defaults. *)
let daemon_caches () =
  let bytes = 64 * 1024 * 1024 in
  ( Irdb.Cache.create ~capacity:256 ~max_bytes:bytes (),
    Zipr.Delta.create ~fragment_bytes:bytes ~memo_capacity:256 () )

(* The served requests again, in stream order and in this process.  Two
   sets of daemon-sized caches are warmed with the warm-up requests; then
   for [seconds] each window request goes through [Pipeline.rewrite_bytes]
   with one set and through the traced composition with the other, so
   both see the same cache states and the same heap.  Returns the
   untraced and traced means per request, the untraced outputs' digests
   by window position, and the failures. *)
let replay (s : stream) ~last ~seconds =
  let caches = daemon_caches () and t_snapshots, t_delta = daemon_caches () in
  let rewrite (snapshots, delta) pos =
    Zipr.Pipeline.rewrite_bytes ~ir_cache:snapshots ~routine_cache:delta ~transforms
      s.inputs.(s.order.(pos)).m.raw
  in
  for pos = 0 to warmup - 1 do
    ignore (rewrite caches pos);
    ignore (rewrite (t_snapshots, t_delta) pos)
  done;
  Layers.reset ();
  let outs = ref [] and untraced = ref 0.0 and traced = ref 0.0 and failed = ref 0 in
  let pos = ref warmup and deadline = Common.now () +. seconds in
  while !pos < last && Common.now () < deadline do
    let inp = s.inputs.(s.order.(!pos)) in
    let t0 = Common.now () in
    let out = rewrite caches !pos in
    let t1 = Common.now () in
    let binary = Layers.parse inp.m.raw in
    let t_out, _ =
      Layers.finish ~transforms (Layers.served_ir ~delta:t_delta ~snapshots:t_snapshots binary)
    in
    traced := !traced +. (Common.now () -. t1);
    untraced := !untraced +. (t1 -. t0);
    (match out with
    | Ok b ->
        outs := Digest.bytes b :: !outs;
        if not (Bytes.equal b t_out) then begin
          incr failed;
          Common.say "MISMATCH %s: traced composition differs from rewrite_bytes" inp.m.name
        end
    | Error e ->
        incr failed;
        outs := "" :: !outs;
        Common.say "ERROR replay %s: %s" inp.m.name e);
    incr pos
  done;
  let per_op x = x /. float_of_int (max 1 (!pos - warmup)) in
  (per_op !untraced, per_op !traced, Array.of_list (List.rev !outs), !failed)

(* -- the workload -- *)

let setup_runs = 41

let run ~ziprtool ~run_dir ~seed ~seconds ~trace =
  let window = if trace then seconds /. 2.0 else seconds in
  let requests = int_of_float (Float.ceil (max_rate *. window)) + period in
  let s = make_stream ~seed ~requests in
  (* Set-up: launch to first answered ping, several times; the last
     daemon serves the run. *)
  let probe = Calib.create ~every:0.1 in
  let launches =
    List.init setup_runs (fun i ->
        Calib.take probe;
        let d, ready = launch ~ziprtool ~run_dir in
        if i < setup_runs - 1 then stop_daemon d;
        (d, ready))
  in
  let daemon = fst (List.nth launches (setup_runs - 1)) in
  let setup_s = Common.median (List.map snd launches) in
  let t_warm = Common.now () in
  let warm, _ = closed_loop s daemon.addr ~first:0 ~last:warmup ~deadline:infinity in
  Common.say "serve-mix: %d warm-up requests in %.2f s" (List.length warm)
    (Common.now () -. t_warm);
  let replies, wall =
    closed_loop ~probe s daemon.addr ~first:warmup ~last:(Array.length s.order)
      ~deadline:(Common.now () +. window)
  in
  let rss = Common.peak_rss_mib (string_of_int daemon.pid) in
  stop_daemon daemon;
  let all = warm @ replies in
  let refs, check_failures = check_outputs s all in
  Reference.report_oracle refs;
  recheck_order_defect s;
  let attempted = List.length all in
  let failed = List.length (List.filter (fun r -> not r.ok) all) + check_failures in
  let ok = List.filter (fun r -> r.ok) replies in
  let lat_ms = List.map (fun r -> r.latency_s *. 1e3) ok in
  let p50 =
    let p = Common.percentile lat_ms 50.0 in
    (p.value, Printf.sprintf "n=%d, %d beyond" p.n p.beyond)
  in
  Common.say
    "serve-mix: 1 client, %d timed requests: memo-hit %.3f, stitched %.3f, snapshot-hit %.3f, \
     cold %.3f"
    (List.length replies) (share ok `Memo_hit) (share ok `Stitched)
    (share ok `Snapshot_hit) (share ok `Cold);
  let timings, raw =
    Calib.timing_metrics
      ~setup:(setup_s, Printf.sprintf "median of %d launches" setup_runs)
      ~probe ~p50 ~ops:(List.length ok) ~wall ~what:"requests"
  in
  let e2e =
    timings
    @ [
      Common.metric ~note:(Printf.sprintf "mean over the first %d inputs" overhead_sample)
        "size_overhead_pct" "%"
        (Reference.mean_size_overhead (sampled s));
      Common.metric
        ~note:(Printf.sprintf "%d inputs per binary" Oracle.inputs_per_binary)
        "exec_overhead_pct" "%"
        (Reference.mean_exec_overhead (sampled s));
      Common.metric ~note:"daemon VmHWM" "peak_rss_mib" "MiB" rss;
    ]
  in
  let extra =
    raw
    @ Common.metric "error_rate" "ratio" (float_of_int failed /. float_of_int (max 1 attempted))
    :: Common.tail_metrics lat_ms
  in
  if not trace then begin
    Common.print_table "serve-mix: end to end" (e2e @ extra);
    Common.print_result ~correct:(failed = 0) ~attempted ~failed e2e
  end
  else begin
    let e2e_mean_s, traced_mean_s, outs, replay_failed =
      replay s ~last:(warmup + List.length replies) ~seconds:(seconds /. 4.0)
    in
    (* Replayed outputs must equal the daemon's for the same requests. *)
    let mismatches =
      List.filter
        (fun r ->
          let k = r.pos - warmup in
          k < Array.length outs && r.ok && outs.(k) <> r.digest)
        replies
    in
    List.iter
      (fun r -> Common.say "MISMATCH request %d: in-process replay differs from the daemon" r.pos)
      mismatches;
    let layers, printed =
      Layers.table ~ops:(Array.length outs) ~e2e_mean_s ~traced_mean_s
        ~verify_ms:(Reference.verify_ms refs)
    in
    let layers = layers @ layer_metrics ok in
    let failed = failed + replay_failed + List.length mismatches in
    Common.print_table "serve-mix: daemon" (e2e @ extra @ layer_times ok);
    Common.print_table "serve-mix: per layer, traced replay" (printed @ layers);
    Common.print_result ~correct:(failed = 0)
      ~attempted:(attempted + (2 * Array.length outs))
      ~failed layers
  end

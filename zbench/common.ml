(* Shared helpers of the benchmark program: clocks, percentiles, peak
   memory, the metric table and the one-line JSON result. *)

let now = Unix.gettimeofday

let say fmt = Printf.printf (fmt ^^ "\n%!")

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Nearest-rank percentile of a sample, with the sample count and the
   number of samples ranked above it: a tail percentile is only worth
   reading when at least ten samples lie beyond it. *)
type pct = { value : float; n : int; beyond : int }

let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then { value = 0.0; n = 0; beyond = 0 }
  else
    let k = max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))) in
    { value = a.(k - 1); n; beyond = n - k }

let median xs = (percentile xs 50.0).value

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mib pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.0)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Spawn [argv] with an empty stdin and stdout/stderr appended to [log],
   returning its pid. *)
let spawn ~log argv =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  Unix.close stdin_w;
  Fun.protect
    ~finally:(fun () ->
      Unix.close out;
      Unix.close stdin_r)
    (fun () -> Unix.create_process argv.(0) argv stdin_r out out)

let rec wait_pid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_pid pid

(* -- metrics -- *)

type metric = { name : string; value : float; unit : string; note : string }

let metric ?(note = "") name unit value = { name; value; unit; note }

(* A percentile metric notes its sample count and how many samples lie
   beyond it, and flags a tail read from fewer than ten. *)
let pct_metric name (p : pct) =
  let note =
    Printf.sprintf "n=%d, %d beyond%s" p.n p.beyond
      (if p.beyond < 10 then " (fewer than 10: small-sample tail)" else "")
  in
  metric ~note name "ms" p.value

(* The tail percentiles of a latency sample in ms that have at least ten
   samples beyond them. *)
let tail_metrics lat_ms =
  List.filter_map
    (fun p ->
      let q = percentile lat_ms p in
      if q.beyond >= 10 then Some (pct_metric (Printf.sprintf "latency_p%.0f_ms" p) q) else None)
    [ 90.0; 99.0 ]

let print_table title metrics =
  say "-- %s --" title;
  List.iter
    (fun m ->
      say "  %-28s %14.4f %-7s %s" m.name m.value m.unit
        (if m.note = "" then "" else "(" ^ m.note ^ ")"))
    metrics

let json_number v =
  if Float.is_finite v then
    let s = Printf.sprintf "%.17g" v in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  else "0.0"

(* The machine-readable result: always the last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
             m.unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* [f] over every element on [jobs] domains (this one included). *)
let parallel_map ~jobs f a =
  let out = Array.make (Array.length a) None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length a then begin
      out.(i) <- Some (f a.(i));
      work ()
    end
  in
  let helpers = List.init (max 0 (jobs - 1)) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join helpers;
  Array.map Option.get out

(* Domains for the untimed checking passes. *)
let check_jobs () = max 1 (min 2 (Domain.recommended_domain_count ()))

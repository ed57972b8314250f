(* Helpers shared by the workloads: clocks, percentiles, result
   fingerprints, process memory and the run directory. *)

open Relalg

let now = Unix.gettimeofday

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of unsorted samples, [p] in (0, 100]. *)
let percentile samples p =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* --- Machine-speed probe -------------------------------------------- *)

(* On a shared machine, other tenants' memory traffic slows the whole
   machine for tens of seconds to minutes at a time, by up to 1.4x: the
   same run on the same seed then reads 1.4x slower.  The probe times a
   fixed memory-bound loop (1M random updates of an 8 MiB array outside
   the OCaml heap, allocation-free, after an untimed pass that loads the
   array into the cache, so what ran before does not matter), which
   slows in step with the engine in those phases while a
   pure-arithmetic loop does not.
   The in-process workloads report throughput and latencies at the
   reference probe speed [probe_ref_s]: a latency is divided by [median
   probe / probe_ref_s], the rate multiplied by it.  serve-oltp reports
   them as measured: its time goes to sockets, scheduling and fsync,
   which moved far less than the probe did.  The values as measured and
   the probe are printed beside the result. *)
let probe_ref_s = 0.007
let probe_words = 1 lsl 20

(* Outside the OCaml heap, so the collector never scans it and the
   engine's heap size and GC pacing do not see it. *)
let probe_arr =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout probe_words in
     Bigarray.Array1.fill a 0;
     a)

(* The probe array's resident size, which an in-process VmHWM includes. *)
let probe_mb = float_of_int (probe_words * 8) /. 1048576.

let probe () =
  let a : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
    Lazy.force probe_arr
  in
  let m = probe_words - 1 in
  for i = 0 to m do
    a.{i} <- a.{i} + 1
  done;
  let x = ref 12345 in
  let t0 = now () in
  for _ = 1 to 1_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land m in
    a.{i} <- a.{i} + 1
  done;
  now () -. t0

(* How much slower than the reference the machine ran while [samples]
   were taken (probing now when there are none). *)
let slowdown samples =
  (if samples = [] then probe () else median samples) /. probe_ref_s

(* --- Answer fingerprints ------------------------------------------ *)

(* An order-independent fingerprint of a set of rows: the row count
   and two wrapping sums of per-row hashes under different seeds.
   Rows are hashed from their values alone, so a result relation and a
   reference computed any other way agree when they hold the same rows,
   and differ unless both sums collide. *)
type fingerprint = { rows : int; h1 : int; h2 : int }

let mix h x =
  (* splitmix64 finalizer over OCaml's 63-bit ints *)
  let z = (h lxor x) * 0x3851f42d4c957f2d in
  let z = (z lxor (z lsr 29)) * 0x14057b7ef767814f in
  z lxor (z lsr 32)

let rec value_hash seed = function
  | Value.VInt n -> mix seed (n + 1)
  | Value.VStr s -> mix seed (Hashtbl.seeded_hash seed s + 2)
  | Value.VBool b -> mix seed (if b then 3 else 4)
  | Value.VEnum (_, i) -> mix seed ((i lsl 3) + 5)
  | Value.VRef r ->
    List.fold_left
      (fun h v -> mix h (value_hash seed v))
      (mix seed (Hashtbl.seeded_hash seed r.Value.target))
      r.Value.key

let row_hash seed (t : Tuple.t) =
  Array.fold_left (fun h v -> mix h (value_hash seed v)) seed t

let empty_fp = { rows = 0; h1 = 0; h2 = 0 }

let add_row fp t =
  {
    rows = fp.rows + 1;
    h1 = fp.h1 + row_hash 0x2545F491 t;
    h2 = fp.h2 + row_hash 0x9E3779B9 t;
  }

let fingerprint rel = Relation.fold add_row empty_fp rel
let fp_to_string fp = Printf.sprintf "%d:%x:%x" fp.rows fp.h1 fp.h2

(* --- Process facts ------------------------------------------------ *)

(* VmHWM (peak resident set) of a process, in MiB, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r

(* Reset a process's VmHWM to its current resident set (writing 5 to
   clear_refs), so a later reading covers only what ran after the
   reset; false when the kernel refuses. *)
let reset_peak_rss pid =
  match open_out (Printf.sprintf "/proc/%s/clear_refs" pid) with
  | exception Sys_error _ -> false
  | oc -> (
    match
      output_string oc "5";
      close_out oc
    with
    | () -> true
    | exception Sys_error _ ->
      close_out_noerr oc;
      false)

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let copy_file src dst =
  let ic = open_in_bin src in
  let oc = open_out_bin dst in
  let buf = Bytes.create 65536 in
  let rec go () =
    let n = input ic buf 0 (Bytes.length buf) in
    if n > 0 then begin
      output oc buf 0 n;
      go ()
    end
  in
  go ();
  close_in ic;
  (* Flush the copy now, so the timed recovery's own fsyncs do not also
     pay for it. *)
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Crash recovery of the durable database at [path]: open a fresh copy
   of its snapshot and log with Database.open_durable, [times] times,
   and return the median seconds and the last recovered database. *)
let recover ~dir ~path ~times =
  let wal = path ^ ".wal" in
  let last = ref None in
  let secs =
    List.init times (fun i ->
        let copy = Filename.concat dir (Printf.sprintf "recover%d.db" i) in
        copy_file path copy;
        if Sys.file_exists wal then copy_file wal (copy ^ ".wal");
        let t0 = now () in
        let db = Database.open_durable ~path:copy in
        let dt = now () -. t0 in
        Database.close db;
        last := Some db;
        dt)
  in
  (median secs, Option.get !last)

(* --- Run configuration and result ---------------------------------- *)

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (* a fixed, short operation count instead of [seconds] *)
  plant_wrong : bool;  (* corrupt one expected answer (self-test) *)
  dir : string;  (* scratch directory of this run *)
}

(* Where the traced run leaves its spans: beside the scratch directory,
   which is deleted when the run ends. *)
let spans_file cfg =
  Filename.concat (Filename.dirname cfg.dir)
    (Printf.sprintf "spans-%s-seed%d.jsonl" cfg.workload cfg.seed)

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  info : (string * string) list;  (* printed before the result line *)
}

(* How many times set-up and recovery run; setup_s and recovery_s are
   medians. *)
let setup_repeats = 9
let recover_repeats = 15

(* Samples of one measured phase. *)
type phase = {
  mutable lat_ms : float list;
  mutable read_ms : float list;
  mutable write_ms : float list;
  mutable attempted : int;
  mutable failed : int;
  mutable busy_s : float;  (* sum of operation latencies *)
  mutable window_rates : float list;
      (* correct operations per second of each measurement window *)
  mutable window_ok : int;
  mutable window_s : float;
  mutable probes : float list;  (* probe seconds *)
  answers : Buffer.t;  (* per-request answer fingerprints, for digests *)
}

let new_phase () =
  {
    lat_ms = [];
    read_ms = [];
    write_ms = [];
    attempted = 0;
    failed = 0;
    busy_s = 0.;
    window_rates = [];
    window_ok = 0;
    window_s = 0.;
    probes = [];
    answers = Buffer.create 256;
  }

(* Close the current measurement window. *)
let end_window p =
  if p.window_s > 0. then
    p.window_rates <- (float_of_int p.window_ok /. p.window_s) :: p.window_rates;
  p.window_ok <- 0;
  p.window_s <- 0.

let add_probe p = p.probes <- probe () :: p.probes

(* Throughput as the median over the run's windows, so a burst of
   outside load on the machine moves it less than a plain average;
   runs too short for a window fall back to the whole run. *)
let ops_per_s p =
  if p.window_rates <> [] then median p.window_rates
  else if p.busy_s > 0. then float_of_int (p.attempted - p.failed) /. p.busy_s
  else 0.

let digest_hex s = Digest.to_hex (Digest.string s)

let gc_counts () = (Gc.minor_words (), (Gc.quick_stat ()).Gc.major_collections)

(* The end-to-end metrics of a measured phase, throughput and latencies
   at the reference probe speed when [scaled], and the values as
   measured (with the probe) for the information lines.  Set-up time is
   always reported as measured: it runs before the phase's probes, and
   scaling it by them widened its spread. *)
let end_to_end ~scaled ~setup_s ~peak_rss_mb p =
  let pct l q = percentile l q in
  let raw =
    [
      ("ops_per_s", ops_per_s p);
      ("latency_p50_ms", pct p.lat_ms 50.);
      ("latency_p99_ms", pct p.lat_ms 99.);
      ("read_p50_ms", pct p.read_ms 50.);
      ("read_p99_ms", pct p.read_ms 99.);
    ]
  in
  let slow = slowdown p.probes in
  let reported =
    if not scaled then raw
    else
      List.map
        (fun (name, v) ->
          (name, if name = "ops_per_s" then v *. slow else v /. slow))
        raw
  in
  let info =
    ("probe_ms", Printf.sprintf "%.4f" (slow *. probe_ref_s *. 1000.))
    :: List.map (fun (n, v) -> ("raw." ^ n, Printf.sprintf "%.6g" v)) raw
  in
  ((("setup_s", setup_s) :: reported) @ [ ("peak_rss_mb", peak_rss_mb) ], info)

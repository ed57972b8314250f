(* The `serve-oltp` workload: a closed loop over two client connections
   to `pascalr serve --file` on a durable suppliers database (scale
   16) with a hash index on shipments.hqty.

   The seeded stream sends query text with literal constants — point
   selections on suppliers and parts, index-probed equality selections
   on shipments — and about 20% uniquely-keyed inserts into shipments.
   Inserts use supplier numbers above every existing supplier and
   quantities above every quantity a read selects, so no interleaving
   of reads and writes changes a read's answer, and every read is
   checked against Naive_eval on the seed database.  After the run the
   server is killed, the database is recovered with
   Database.open_durable, and it must hold the seed rows plus exactly
   the acknowledged inserts. *)

open Relalg
open Pascalr

let scale = 16
let n_suppliers = 20 * scale
let n_parts = 12 * scale
let max_read_qty = 900  (* reads select hqty <= 900, inserts use > 900 *)
let request_timeout_s = 10.
let warmup_requests = 25  (* per connection, during set-up *)

(* --- The request stream -------------------------------------------- *)

type request = Read of string | Write of string * (int * int * int)

let request_text = function Read t | Write (t, _) -> t

let supplier_read k =
  Printf.sprintf "[<s.sname, s.scity> OF EACH s IN suppliers: s.snr = %d]" k

let part_read k =
  Printf.sprintf
    "[<p.pname, p.pcolor, p.pweight> OF EACH p IN parts: p.pnr = %d]" k

let shipment_read v =
  Printf.sprintf "[<h.hsnr, h.hpnr> OF EACH h IN shipments: h.hqty = %d]" v

(* Every read text the stream can produce, so their answers can all be
   computed before the run. *)
let all_reads () =
  List.init n_suppliers (fun i -> supplier_read (i + 1))
  @ List.init n_parts (fun i -> part_read (i + 1))
  @ List.init max_read_qty (fun i -> shipment_read (i + 1))

(* The [w]-th insert: supplier numbers n_suppliers+1..999 (the hsnr
   domain) times part numbers 1..999 give 679 * 999 distinct keys. *)
let insert ~rng ~o1 ~o2 w =
  let span = 999 - n_suppliers in
  let s = n_suppliers + 1 + ((w + o1) mod span) in
  let p = 1 + (((w / span) + o2) mod 999) in
  let q = max_read_qty + 1 + Workload.Prng.int rng (1000 - max_read_qty) in
  Write (Printf.sprintf "shipments :+ [<%d, %d, %d>]" s p q, (s, p, q))

(* The mix is a synthetic assumption: there is no recorded traffic to
   take it from.  20% writes is the share the workload is defined with;
   the reads are split evenly over the three read kinds, because each
   reaches a different access path (the key of suppliers, the key of
   parts, the secondary index on shipments.hqty) and nothing says one
   path is used more than another. *)
let write_pct = 20

let stream ~seed =
  let rng = Workload.Prng.create ((seed * 104729) + 3) in
  let o1 = Workload.Prng.int rng 1000 and o2 = Workload.Prng.int rng 1000 in
  let writes = ref 0 in
  fun () ->
    if Workload.Prng.int rng 100 < write_pct then begin
      let w = !writes in
      incr writes;
      insert ~rng ~o1 ~o2 w
    end
    else
      match Workload.Prng.int rng 3 with
      | 0 -> Read (supplier_read (Workload.Prng.in_range rng 1 n_suppliers))
      | 1 -> Read (part_read (Workload.Prng.in_range rng 1 n_parts))
      | _ -> Read (shipment_read (Workload.Prng.in_range rng 1 max_read_qty))

(* Set-up warm-up traffic: reads only, from its own seeded stream. *)
let warmup_stream ~seed =
  let next = stream ~seed:(seed + 1_000_003) in
  let rec read () = match next () with Read _ as r -> r | Write _ -> read () in
  read

(* --- Expected answers ----------------------------------------------- *)

(* A server response is "<name> (N elements):" followed by one line per
   tuple; answers compare as the count and the sorted tuple lines. *)
type answer = { count : int; lines : string list }

let answer_of_relation rel =
  {
    count = Relation.cardinality rel;
    lines = List.sort compare (List.map Tuple.to_string (Relation.to_list rel));
  }

let parse_response = function
  | header :: rows -> (
    let suffix = " elements):" in
    let n = String.length header and k = String.length suffix in
    match String.rindex_opt header '(' with
    | Some i when n > k && String.sub header (n - k) k = suffix -> (
      match int_of_string_opt (String.sub header (i + 1) (n - k - i - 1)) with
      | Some count ->
        (* an empty relation prints a blank line after the header *)
        Some { count; lines = List.sort compare (List.filter (( <> ) "") rows) }
      | None -> None)
    | _ -> None)
  | [] -> None

let expected_answers seed_db =
  let tbl = Hashtbl.create 2048 in
  List.iter
    (fun text ->
      let q = Pascalr_lang.Elaborate.query_of_string seed_db text in
      Hashtbl.replace tbl text (answer_of_relation (Naive_eval.run seed_db q)))
    (all_reads ());
  tbl

(* --- The client ----------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable lines : string list;  (* lines of the response being read *)
  mutable pending : (int * request * float) option;  (* id, request, sent *)
  mutable alive : bool;
}

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; inbuf = Buffer.create 4096; lines = []; pending = None; alive = true }

let kill_conn c =
  if c.alive then begin
    c.alive <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let send c id req =
  let line = request_text req ^ "\n" in
  let t = Common.now () in
  match Unix.write_substring c.fd line 0 (String.length line) with
  | _ -> c.pending <- Some (id, req, t)
  | exception Unix.Unix_error _ ->
    c.pending <- Some (id, req, t);
    kill_conn c

let chunk = Bytes.create 65536

(* Read what is available on [c]; call [complete c lines] for every
   finished response.  End of file kills the connection. *)
let receive c ~complete =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 | (exception Unix.Unix_error _) -> kill_conn c
  | n ->
    Buffer.add_subbytes c.inbuf chunk 0 n;
    let data = Buffer.contents c.inbuf in
    Buffer.clear c.inbuf;
    let rec split start =
      match String.index_from_opt data start '\n' with
      | None -> Buffer.add_substring c.inbuf data start (String.length data - start)
      | Some i ->
        let line = String.trim (String.sub data start (i - start)) in
        if line = "." then begin
          let lines = List.rev c.lines in
          c.lines <- [];
          complete c lines
        end
        else c.lines <- line :: c.lines;
        split (i + 1)
    in
    split 0

(* Drive [conns] in a closed loop: each live connection without a
   request in flight sends [next ()] while [more ()] holds; [on_done c
   id req sent received lines] sees every response, [on_fail id req]
   every request lost to a timeout or a dead connection.  [received] is
   the time select reported the response readable, taken before any
   response of that wake-up is handled, so the work [on_done] does for
   one connection is not charged to the other.  Request ids are drawn
   from [ids].  Returns when no request is in flight and [more ()] is
   false, or every connection is dead. *)
let closed_loop conns ~ids ~more ~next ~on_done ~on_fail =
  let in_flight () = List.exists (fun c -> c.alive && c.pending <> None) conns in
  let fail_dead () =
    List.iter
      (fun c ->
        match c.pending with
        | Some (id, req, _) when not c.alive ->
          c.pending <- None;
          on_fail id req
        | _ -> ())
      conns
  in
  let rec loop () =
    List.iter
      (fun c ->
        if c.alive && c.pending = None && more () then begin
          let id = !ids in
          incr ids;
          send c id (next ())
        end)
      conns;
    fail_dead ();
    if in_flight () then begin
      let fds = List.filter_map (fun c -> if c.alive then Some c.fd else None) conns in
      (match Unix.select fds [] [] 1.0 with
      | ready, _, _ ->
        let received = Common.now () in
        List.iter
          (fun c ->
            if c.alive && List.mem c.fd ready then
              receive c ~complete:(fun c lines ->
                  match c.pending with
                  | Some (id, req, sent) ->
                    c.pending <- None;
                    on_done c id req sent received lines
                  | None -> kill_conn c))
          conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      let now = Common.now () in
      List.iter
        (fun c ->
          match c.pending with
          | Some (_, _, sent) when now -. sent > request_timeout_s -> kill_conn c
          | _ -> ())
        conns;
      fail_dead ();
      loop ()
    end
  in
  loop ()

(* --- Set-up ---------------------------------------------------------- *)

type server = {
  pid : int;
  path : string;  (* the durable database *)
  conns : conn list;
  mutable running : bool;
}

let server_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "pascalr.exe")

let seed_database seed =
  let db = Workload.Suppliers.generate (Workload.Suppliers.scaled ~seed scale) in
  ignore (Database.declare_index db "shipments" ~on:[ "hqty" ] : Secondary_index.t);
  db

(* SIGKILL: the durability check wants a crash, not a clean close. *)
let stop_server s =
  if s.running then begin
    s.running <- false;
    List.iter kill_conn s.conns;
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] s.pid : int * Unix.process_status)
  end

let start_server ~dir ~seed ~expected =
  Common.mkdir_p dir;
  let path = Filename.concat dir "db" and sock = Filename.concat dir "s.sock" in
  let db = seed_database seed in
  Database.attach_wal db ~path;
  Database.close db;
  let log = Unix.openfile (Filename.concat dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let exe = server_exe () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--file"; path; "--socket"; sock |]
      Unix.stdin log log
  in
  Unix.close log;
  let give_up = Common.now () +. 60. in
  let rec connect_retry () =
    match connect sock with
    | c -> c
    | exception Unix.Unix_error _ when Common.now () < give_up ->
      Unix.sleepf 0.005;
      connect_retry ()
  in
  let conns =
    try [ connect_retry (); connect_retry () ]
    with e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e
  in
  let s = { pid; path; conns; running = true } in
  let sent = ref 0 and bad = ref 0 in
  let next = warmup_stream ~seed in
  closed_loop conns ~ids:(ref 0)
    ~more:(fun () -> !sent < 2 * warmup_requests)
    ~next:(fun () ->
      incr sent;
      next ())
    ~on_done:(fun _ _ req _ _ lines ->
      if parse_response lines <> Some (Hashtbl.find expected (request_text req))
      then begin
        incr bad;
        Printf.eprintf "perfbench: warm-up %s answered %s\n%!" (request_text req)
          (String.concat " | " lines)
      end)
    ~on_fail:(fun _ req ->
      incr bad;
      Printf.eprintf "perfbench: warm-up %s lost\n%!" (request_text req));
  if !bad > 0 then begin
    stop_server s;
    failwith (Printf.sprintf "%d warm-up requests failed" !bad)
  end;
  s

(* --- The run ----------------------------------------------------------- *)

(* The measured phases, the durability check and the metrics. *)
let measure (cfg : Common.config) ~expected ~seed_db ~setup_s server =
  let wal_bytes0 = Common.file_size (server.path ^ ".wal") in
  if cfg.plant_wrong then begin
    (* Self-test: corrupt the expected answer of the first read. *)
    let next = stream ~seed:cfg.seed in
    let rec first_read () = match next () with Read t -> t | Write _ -> first_read () in
    let text = first_read () in
    let a = Hashtbl.find expected text in
    Hashtbl.replace expected text { a with count = a.count + 1 }
  end;
  let stream_digest =
    let next = stream ~seed:cfg.seed in
    Common.digest_hex
      (String.concat "\n" (List.init 1000 (fun _ -> request_text (next ()))))
  in
  let next = stream ~seed:cfg.seed in
  let acked = ref [] in
  let smoke_ops = 200 in
  (* One measured phase.  Returns its samples and, in request order,
     every correctly answered request with its round-trip seconds. *)
  let phase ~seconds =
    let p = Common.new_phase () in
    (* The machine probe runs before and after the phase only: the
       figures are reported as measured, and a probe inside the loop
       would stall requests in flight. *)
    Common.add_probe p;
    let deadline = Common.now () +. seconds in
    let answers = Hashtbl.create 1024 in
    let answered = ref [] in
    let ids = ref 0 in
    let fail id req why =
      p.Common.failed <- p.Common.failed + 1;
      Printf.eprintf "perfbench: request %d (%s) failed: %s\n%!" id
        (request_text req) why
    in
    let t_start = Common.now () in
    let window_start = ref t_start in
    closed_loop server.conns ~ids
      ~more:(fun () ->
        if cfg.smoke then !ids < smoke_ops else Common.now () < deadline)
      ~next:(fun () ->
        p.Common.attempted <- p.Common.attempted + 1;
        next ())
      ~on_done:(fun _ id req sent received lines ->
        let rtt = received -. sent in
        let ms = rtt *. 1000. in
        p.lat_ms <- ms :: p.lat_ms;
        let ok =
          match req with
          | Read text ->
            p.read_ms <- ms :: p.read_ms;
            parse_response lines = Some (Hashtbl.find expected text)
          | Write (_, key) ->
            p.write_ms <- ms :: p.write_ms;
            if lines = [ "ok" ] then acked := key :: !acked;
            lines = [ "ok" ]
        in
        if ok then begin
          p.window_ok <- p.window_ok + 1;
          answered := (id, req, rtt) :: !answered
        end
        else fail id req ("answered " ^ String.concat " | " lines);
        if received -. !window_start >= 1. then begin
          p.window_s <- received -. !window_start;
          Common.end_window p;
          window_start := received
        end;
        Hashtbl.replace answers id (String.concat "\n" lines))
      ~on_fail:(fun id req -> fail id req "timeout or connection lost");
    p.busy_s <- Common.now () -. t_start;
    Common.add_probe p;
    (* Answers in request order, for the run's answer digest. *)
    for id = 0 to !ids - 1 do
      Buffer.add_string p.answers
        (Option.value (Hashtbl.find_opt answers id) ~default:"<lost>");
      Buffer.add_char p.answers '\n'
    done;
    (p, List.sort (fun (a, _, _) (b, _, _) -> compare a b) !answered)
  in
  let phase_s = if cfg.trace then cfg.seconds /. 2. else cfg.seconds in
  let rss_reset = Common.reset_peak_rss (string_of_int server.pid) in
  let untraced, answered = phase ~seconds:phase_s in
  let traced =
    if not cfg.trace then None
    else begin
      (* The traced replay runs after the phase, so its work never
         delays a round trip: each answered request, in request order,
         goes through the layers' public functions against a
         WAL-attached copy of the seed database, and the server's
         share of the request is its round trip minus that replay. *)
      let replay_db = seed_database cfg.seed in
      Database.attach_wal replay_db ~path:(Filename.concat cfg.dir "replay.db");
      let writer = Session.create replay_db and cache = Session.create replay_db in
      let gc0 = Common.gc_counts () in
      let tasks0 = Obs.Metrics.counter_value "parallel.tasks" in
      let overhead = ref 0. and replay_s = ref 0. in
      List.iter
        (fun (id, req, rtt) ->
          let t0 = Common.now () in
          match
            match req with
            | Read text ->
              let rel = Layers.read ~req:id replay_db text in
              if answer_of_relation rel <> Hashtbl.find expected text then
                failwith ("replay disagrees with the reference: " ^ text)
            | Write (text, _) -> Layers.write ~req:id writer text
          with
          | () ->
            let dt = Common.now () -. t0 in
            replay_s := !replay_s +. dt;
            overhead := !overhead +. (rtt -. dt);
            (* The in-order replay session behind plan_cache.hit_ratio. *)
            (match req with
            | Read text ->
              ignore
                (Session.prepare cache
                   (Pascalr_lang.Elaborate.query_of_string replay_db text)
                  : Prepared.t)
            | Write _ -> ())
          | exception Sys.Break -> raise Sys.Break
          | exception e ->
            untraced.failed <- untraced.failed + 1;
            Printf.eprintf "perfbench: replay of request %d (%s) failed: %s\n%!"
              id (request_text req) (Printexc.to_string e))
        answered;
      let gc1 = Common.gc_counts () in
      let tasks = Obs.Metrics.counter_value "parallel.tasks" - tasks0 in
      Database.close replay_db;
      (* The traced run's rate: the same answers over the phase plus
         the replay that traced them. *)
      let traced_ops_per_s =
        float_of_int (List.length answered) /. (untraced.busy_s +. !replay_s)
      in
      Some (List.length answered, !overhead, traced_ops_per_s, gc0, gc1, tasks,
            Session.cache_stats cache)
    end
  in
  let peak_rss_mb = Common.peak_rss_mb (string_of_int server.pid) in
  let wal_bytes = Common.file_size (server.path ^ ".wal") - wal_bytes0 in
  stop_server server;
  (* Durability: the recovered database holds the seed rows and exactly
     the acknowledged inserts. *)
  let recovery_s, recovered = Common.recover ~dir:cfg.dir ~path:server.path ~times:Common.recover_repeats in
  let durability_failures =
    let shipments = Database.find_relation recovered "shipments" in
    let seed_ship = Database.find_relation seed_db "shipments" in
    let missing_seed =
      Relation.fold
        (fun n t -> if Relation.mem_tuple shipments t then n else n + 1)
        0 seed_ship
    in
    let missing_acked =
      List.fold_left
        (fun n (s, p, q) ->
          let t = Tuple.of_list [ Value.int s; Value.int p; Value.int q ] in
          if Relation.mem_tuple shipments t then n else n + 1)
        0 !acked
    in
    let extra =
      Relation.cardinality shipments
      - (Relation.cardinality seed_ship + List.length !acked - missing_acked)
      + missing_seed
    in
    let others =
      List.filter
        (fun n ->
          not
            (Relation.equal_set (Database.find_relation recovered n)
               (Database.find_relation seed_db n)))
        [ "suppliers"; "parts" ]
    in
    if missing_seed + missing_acked + extra + List.length others > 0 then
      Printf.eprintf
        "perfbench: recovery lost %d seed rows and %d acknowledged inserts, \
         has %d extra rows, changed [%s]\n%!"
        missing_seed missing_acked extra (String.concat ", " others);
    missing_seed + missing_acked + extra + List.length others
  in
  let attempted = untraced.attempted in
  let failed = untraced.failed + durability_failures in
  let acked_writes = List.length !acked in
  let info =
    [
      ("samples", string_of_int untraced.attempted);
      ("read_samples", string_of_int (List.length untraced.read_ms));
      ("write_samples", string_of_int (List.length untraced.write_ms));
      ("acknowledged_writes", string_of_int acked_writes);
      ("peak_rss_reset", string_of_bool rss_reset);
      ("stream_digest", stream_digest);
      ("answer_digest", Common.digest_hex (Buffer.contents untraced.answers));
    ]
  in
  let pct l q = Common.percentile l q in
  match traced with
  | None ->
    let metrics, raw =
      Common.end_to_end ~scaled:false ~setup_s ~peak_rss_mb untraced
    in
    { Common.attempted; failed; info = info @ raw; metrics }
  | Some (answered, overhead, traced_ops_per_s, gc0, gc1, tasks, cache) ->
    Layers.write_jsonl (Common.spans_file cfg);
    {
      Common.attempted;
      failed;
      info = info @ [ ("traced_samples", string_of_int answered) ];
      metrics =
        Layers.metrics ~ops:answered
          ~untraced_ops_per_s:(Common.ops_per_s untraced)
          ~traced_ops_per_s ~gc0 ~gc1 ~tasks
          ~hit_ratio:(Plan_cache.hit_rate cache)
          ~server_overhead_ms:
            (if answered = 0 then 0. else overhead *. 1000. /. float_of_int answered)
          ~wal_bytes_per_write:
            (if acked_writes = 0 then 0.
             else float_of_int wal_bytes /. float_of_int acked_writes)
          ~write_p50_ms:(pct untraced.write_ms 50.)
          ~write_p99_ms:(pct untraced.write_ms 99.) ~recovery_s;
    }

let run (cfg : Common.config) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let seed_db = seed_database cfg.Common.seed in
  let expected = expected_answers seed_db in
  (* Set up several times, stopping each server before the next starts;
     setup_s is the median and the last server is the one measured. *)
  let setup_s, server =
    let times = ref [] and last = ref None in
    for k = 1 to Common.setup_repeats do
      Option.iter stop_server !last;
      last := None;
      let t0 = Common.now () in
      let s =
        start_server ~dir:(Filename.concat cfg.dir (Printf.sprintf "setup%d" k))
          ~seed:cfg.seed ~expected
      in
      times := (Common.now () -. t0) :: !times;
      last := Some s
    done;
    (Common.median !times, Option.get !last)
  in
  Fun.protect ~finally:(fun () -> stop_server server) (fun () ->
      measure cfg ~expected ~seed_db ~setup_s server)

(* The measuring half of perfbench: one closed-loop client for one
   workload. perfbench/run.py builds this and bin/sagma_server.exe,
   starts the server as its own process and runs

     bench_client.exe --workload NAME --seed N --seconds S --trace 0|1 --port P

   The last stdout line is one JSON object with the client's metrics,
   operation counts and report fields; run.py adds the server-side
   figures and prints the benchmark's result line.

   --trace 0 measures end to end over one loopback connection, with the
   program's metric collection off. --trace 1 replays the same
   operation sequence in process, timing the calls into each layer's
   public functions and reading the Sagma_obs.Metrics counters, then
   replays a short fixed write sequence (the ingest probe), and adds
   unit-cost microbenchmarks on the 64/256/512/1024-bit key axis and
   the aggregate closure check. *)

module Z = Sagma_bigint.Bigint
module Drbg = Sagma_crypto.Drbg
module Bgn = Sagma_bgn.Bgn
module Crt = Sagma_bgn.Crt_channels
module Curve = Sagma_pairing.Curve
module Fp2 = Sagma_pairing.Fp2
module Pairing = Sagma_pairing.Pairing
module Scheme = Sagma.Scheme
module Config = Sagma.Config
module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Executor = Sagma_db.Executor
module Tpch = Sagma_db.Tpch
module Protocol = Sagma_protocol.Protocol
module Transport = Sagma_protocol.Transport
module Server = Sagma_protocol.Server
module Metrics = Sagma_obs.Metrics

let now = Unix.gettimeofday
let ms_since t0 = (now () -. t0) *. 1000.

(* ------------------------------------------------------------------ *)
(* Workloads *)

(* Every workload groups TPC-H lineitem by (returnflag, linestatus)
   with B = 2 and t = 2. The operation count is seconds × [nominal_rate]:
   fixed by the arguments, never by elapsed time, so table size and work
   done do not depend on host speed.

   A run is [rounds] rounds. Round r does set-up r (keygen,
   encrypt_table, Upload), its warm-up queries, then the r-th share of
   the operations against that fresh table. Spreading the set-ups over
   the run makes setup_s, warmup_s and the operation timings sample the
   same stretch of host time, which drifts on this kind of host.

   The end-to-end workloads are read-only: every measured operation is
   a query. The rates and round counts are set so that a whole run,
   set-ups included, lasts about --seconds on a 2-vCPU Xeon. *)
type workload = {
  name : string;
  bits : int;              (* BGN modulus size *)
  base_rows : int;         (* rows uploaded at set-up *)
  aggregate : Query.aggregate;
  group_by : string list;  (* the query's GROUP BY columns *)
  batch : int;             (* appends before each query; 0 = read-only *)
  nominal_rate : float;    (* measured operations per second of --seconds *)
  rounds : int;            (* set-ups per run; setup_s is their median *)
  warmup_queries : int;    (* queries after each upload, timed as warmup_s *)
}

let group_columns = [ "l_returnflag"; "l_linestatus" ]

let workloads =
  [ { name = "dashboard-64"; bits = 64; base_rows = 48; aggregate = Query.Sum "l_quantity";
      group_by = group_columns; batch = 0; nominal_rate = 2.8; rounds = 16; warmup_queries = 2 };
    { name = "count-256"; bits = 256; base_rows = 24; aggregate = Query.Count;
      group_by = [ "l_returnflag" ]; batch = 0; nominal_rate = 2.1; rounds = 8; warmup_queries = 2 } ]

(* Not a workload of its own: single-row appends, each batch of 8
   followed by one SUM whose WHERE selects only that batch. Its
   end-to-end figures spread too far from run to run on a small shared
   host, so the traced run replays a short fixed sequence of it to
   measure the write path's layers (append_payload, codec, the server's
   append path, SSE posting extension). *)
let ingest_probe =
  { name = "ingest-64"; bits = 64; base_rows = 16; aggregate = Query.Sum "l_quantity";
    group_by = group_columns; batch = 8; nominal_rate = 50.0; rounds = 2; warmup_queries = 2 }

let group_domains =
  [ ("l_returnflag", [ Value.Str "A"; Value.Str "N"; Value.Str "R" ]);
    ("l_linestatus", [ Value.Str "O"; Value.Str "F" ]) ]
let batch_column = "l_orderkey"
let table_name = "lineitem"

let config w =
  Config.make ~bucket_size:2 ~max_group_attrs:2 ~bgn_bits:w.bits
    ~filter_columns:(if w.batch > 0 then [ batch_column ] else [])
    ~value_columns:[ "l_quantity" ] ~group_columns ()

(* Batch 0 is the uploaded table; batch k ≥ 1 is the k-th run of
   appends. Read-only workloads query the whole table. *)
let query_for w k =
  let where = if w.batch > 0 then [ (batch_column, Value.Int k) ] else [] in
  Query.make ~where ~group_by:w.group_by w.aggregate

let column = Table.column_index (Table.make Tpch.schema)

(* The seed fixes every row: TPC-H rows whose l_orderkey is replaced by
   the batch number, so a WHERE on it selects exactly one batch. *)
let tagged_rows ~seed ~stream ~rows ~batch_of =
  let t = Tpch.generate ~rows (Drbg.create (Printf.sprintf "perfbench/%d/%s" seed stream)) in
  let key = column batch_column in
  List.mapi
    (fun i r ->
      let r = Array.copy r in
      r.(key) <- Value.Int (batch_of i);
      r)
    (Table.rows t)

type op = Q of int | A of int * Value.t array

(* The operations of each round, paired with its set-up number. A batch
   of appends and its query stay in one round. *)
let schedule w ~seed ~seconds =
  let n = max w.rounds (int_of_float (Float.round (float_of_int seconds *. w.nominal_rate))) in
  let units =
    if w.batch = 0 then Array.make n [ Q 0 ]
    else begin
      let batches = max 1 (n / (w.batch + 1)) in
      let rows =
        Array.of_list
          (tagged_rows ~seed ~stream:"appends" ~rows:(batches * w.batch)
             ~batch_of:(fun i -> 1 + (i / w.batch)))
      in
      Array.init batches (fun b ->
          List.init w.batch (fun j -> A (b + 1, rows.((b * w.batch) + j))) @ [ Q (b + 1) ])
    end
  in
  let u = Array.length units in
  List.init w.rounds (fun r ->
      let lo = r * u / w.rounds and hi = (r + 1) * u / w.rounds in
      (r, List.concat (Array.to_list (Array.sub units lo (hi - lo)))))

let base_rows w ~seed = tagged_rows ~seed ~stream:"base" ~rows:w.base_rows ~batch_of:(fun _ -> 0)

(* ------------------------------------------------------------------ *)
(* Connections: one client driving one table through an exchange function *)

(* [timed name f] is where a traced pass records a layer call; the
   end-to-end pass passes the identity. *)
type conn = {
  exchange : Protocol.request -> Protocol.response;
  timed : 'a. string -> (unit -> 'a) -> 'a;
}

type state = {
  w : workload;
  client : Scheme.client;
  mutable plain : Value.t array list;  (* every acknowledged row, newest first *)
  mutable total_rows : int;
  mutable answers : (int * Scheme.result_row list) list;  (* batch, decrypted result *)
}

exception Op_failed of string

let expect_ack = function
  | Protocol.Ack -> ()
  | Protocol.Failed { code; message } ->
    raise (Op_failed (Protocol.error_code_to_string code ^ ": " ^ message))
  | _ -> raise (Op_failed "unexpected reply")

(* Keygen, encrypt_table and Upload, ending at the server's ack. The
   key of set-up [rep] is the same in every run: a key's bits set the
   cost of the Miller loop and of the shifts by −1 mod n, and that cost
   should not vary with the seed, which varies the rows. The fresh
   table replaces the previous round's on the server. *)
let setup s w ~rep base =
  let client =
    Scheme.setup (config w) ~domains:group_domains
      (Drbg.create (Printf.sprintf "perfbench/%s/keys/%d" w.name rep))
  in
  let enc =
    s.timed "scheme.encrypt_table_ms" (fun () ->
        Scheme.encrypt_table client (Table.of_rows Tpch.schema base))
  in
  expect_ack (s.exchange (Protocol.Upload { name = table_name; table = enc }));
  ({ w; client; plain = List.rev base; total_rows = List.length base; answers = [] }, enc)

let upload_bytes enc =
  String.length (Protocol.encode_request (Protocol.Upload { name = table_name; table = enc }))

let run_query s st k =
  let tok = s.timed "scheme.token_ms" (fun () -> Scheme.token st.client (query_for st.w k)) in
  match s.exchange (Protocol.Aggregate { name = table_name; token = tok }) with
  | Protocol.Aggregates agg ->
    let rows =
      s.timed "scheme.decrypt_ms" (fun () ->
          Scheme.decrypt st.client tok agg ~total_rows:st.total_rows)
    in
    st.answers <- (k, rows) :: st.answers
  | Protocol.Failed { code; message } ->
    raise (Op_failed (Protocol.error_code_to_string code ^ ": " ^ message))
  | _ -> raise (Op_failed "unexpected reply to Aggregate")

let run_append s st k row =
  let values = [| Value.as_int row.(column "l_quantity") |] in
  let groups = Array.of_list (List.map (fun c -> row.(column c)) group_columns) in
  let enc_row, keywords =
    s.timed "scheme.append_payload_ms" (fun () ->
        Scheme.append_payload st.client ~values ~groups
          ~filters:[ (batch_column, Value.Int k) ])
  in
  expect_ack
    (s.exchange (Protocol.Append { name = table_name; row = enc_row; keywords; row_id = None }));
  st.plain <- row :: st.plain;
  st.total_rows <- st.total_rows + 1

let run_op s st = function
  | Q k -> run_query s st k
  | A (k, row) -> run_append s st k row

(* Every decrypted answer against the plaintext executor over the same
   rows, appended ones included. Returns the number of mismatches. *)
let mismatches st =
  let table = Table.of_rows Tpch.schema (List.rev st.plain) in
  let norm rows = List.sort compare (List.map (fun (g, s, c) -> (List.map Value.to_string g, s, c)) rows) in
  List.fold_left
    (fun bad (k, got) ->
      let want = Executor.run table (query_for st.w k) in
      let want = List.map (fun (r : Executor.result_row) -> (r.group, r.sum, r.count)) want in
      let got = List.map (fun (r : Scheme.result_row) -> (r.group, r.sum, r.count)) got in
      if norm want = norm got then bad
      else begin
        Printf.printf "MISMATCH on batch %d query\n%!" k;
        bad + 1
      end)
    0 st.answers

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted xs = List.sort compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest order statistic with at least ten samples above it,
   with its percentile; None below eleven samples. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 11 then None else Some (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

(* A fixed integer loop: host drift shows here, program drift does not.
   Four independent multiply chains keep the multiplier busy, as bigint
   arithmetic does, so a busy sibling hyperthread slows it too.
   Diagnostic only — it never normalises a metric. *)
let ref_loop_ms () =
  let t0 = now () in
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  for i = 1 to 25_000_000 do
    a := (!a * 1103515245) + i;
    b := (!b * 69069) + i;
    c := (!c * 1664525) + i;
    d := (!d * 214013) + i
  done;
  ignore (Sys.opaque_identity (!a + !b + !c + !d));
  ms_since t0

(* ------------------------------------------------------------------ *)
(* Output *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* [table] is every figure in print order, flagged when it belongs in
   the result's metrics; the others go to the report's "extra". *)
let emit ~attempted ~failed ~table ~report =
  List.iter (fun (m, _) -> Printf.printf "  %-38s %16.6f %s\n" m.m_name m.m_value m.m_unit) table;
  let gated, extra = List.partition snd table in
  let obj kvs = "{" ^ String.concat "," kvs ^ "}" in
  let str s = "\"" ^ Metrics.json_escape s ^ "\"" in
  let extra = obj (List.map (fun (m, _) -> str m.m_name ^ ":" ^ json_float m.m_value) extra) in
  let report = report @ [ ("extra", extra) ] in
  print_endline
    (obj
       [ "\"attempted\":" ^ string_of_int attempted;
         "\"failed\":" ^ string_of_int failed;
         "\"metrics\":"
         ^ obj
             (List.map
                (fun (m, _) ->
                  str m.m_name ^ ":" ^ obj [ "\"value\":" ^ json_float m.m_value; "\"unit\":" ^ str m.m_unit ])
                gated);
         "\"report\":" ^ obj (List.map (fun (k, v) -> str k ^ ":" ^ v) report) ])

(* ------------------------------------------------------------------ *)
(* End-to-end run *)

let rec connect port tries =
  try Transport.connect ~port ()
  with Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when tries > 0 ->
    Unix.sleepf 0.05;
    connect port (tries - 1)

let end_to_end w ~seed ~seconds ~port =
  let fd = connect port 200 in
  let s = { exchange = Transport.call fd; timed = (fun _ f -> f ()) } in
  let base = base_rows w ~seed in
  let attempted = ref 0 and failed = ref 0 in
  let attempt f =
    incr attempted;
    try f () with
    | Op_failed msg ->
      incr failed;
      Printf.printf "FAILED: %s\n%!" msg
    | e ->
      incr failed;
      Printf.printf "FAILED: %s\n%!" (Printexc.to_string e)
  in
  let setups = ref [] and warmups = ref [] and frame_bytes = ref 0 in
  let query_ms = ref [] and wall = ref 0. and ops = ref 0 and rounds = ref [] in
  List.iter
    (fun (rep, slice) ->
      incr attempted;
      let t0 = now () in
      let st, enc = setup s w ~rep base in
      let setup_s = now () -. t0 in
      if rep = 0 then frame_bytes := upload_bytes enc;
      let t1 = now () in
      for _ = 1 to w.warmup_queries do
        attempt (fun () -> run_query s st 0)
      done;
      let warmup_s = now () -. t1 in
      let t2 = now () in
      let round_ms =
        List.map
          (fun op ->
            let t = now () in
            attempt (fun () -> run_op s st op);
            ms_since t)
          slice
      in
      let round_wall = now () -. t2 in
      setups := setup_s :: !setups;
      warmups := warmup_s :: !warmups;
      query_ms := round_ms @ !query_ms;
      wall := !wall +. round_wall;
      ops := !ops + List.length slice;
      rounds := [ setup_s; warmup_s; median round_ms; float_of_int (List.length slice) /. round_wall ] :: !rounds;
      failed := !failed + mismatches st)
    (schedule w ~seed ~seconds);
  Unix.close fd;
  (* The query tail is printed with its percentile and sample count but
     not gated: its run-to-run spread exceeds the largest bound allowed
     when the host is noisy. *)
  let tail_lines =
    match tail !query_ms with
    | None -> []
    | Some (v, pct) -> [ (metric "query_ms.tail" "ms" v, false); (metric "query_ms.tail_pct" "%" pct, false) ]
  in
  let table =
    [ (metric "setup_s" "s" (median !setups), true);
      (metric "warmup_s" "s" (median !warmups), true);
      (metric "query_ms.p50" "ms" (median !query_ms), true) ]
    @ tail_lines
    @ [ (metric "query_ms.samples" "count" (float_of_int (List.length !query_ms)), false);
        (metric "ops_per_s" "1/s" (float_of_int !ops /. !wall), true);
        (metric "enc_bytes_per_row" "bytes" (float_of_int !frame_bytes /. float_of_int w.base_rows), true);
        (metric "error_rate" "ratio" (float_of_int !failed /. float_of_int !attempted), false) ]
  in
  (* Per round: setup_s, warmup_s, query p50 in ms, operations per
     second. A diagnostic for telling host drift within a run apart
     from a steady change. *)
  let json_list xs = "[" ^ String.concat "," xs ^ "]" in
  let per_round = json_list (List.rev_map (fun r -> json_list (List.map json_float r)) !rounds) in
  (table, !attempted, !failed, [ ("rounds", per_round) ])

(* ------------------------------------------------------------------ *)
(* Traced run *)

(* Counters the per-layer metrics read; the determinism check compares
   every counter the registry holds. *)
let counters () = (Metrics.snapshot ()).Metrics.counters

let delta before after =
  List.filter_map
    (fun (k, v) ->
      let v0 = Option.value (List.assoc_opt k before) ~default:0 in
      if v = v0 then None else Some (k, v - v0))
    after

let count d k = float_of_int (Option.value (List.assoc_opt k d) ~default:0)

let add_counts a b =
  List.fold_left
    (fun acc (k, v) ->
      (k, v + Option.value (List.assoc_opt k acc) ~default:0) :: List.remove_assoc k acc)
    a b
  |> List.sort compare

type pass = {
  p_wall : float;                              (* measured phase, s *)
  p_ops : int;
  p_counts : (string * int) list;              (* measured phase *)
  p_warm_counts : (string * int) list;         (* warmup queries *)
  p_samples : (string, float list) Hashtbl.t;  (* layer -> per-call ms *)
  p_bytes : int;                               (* request + reply frame bytes, measured phase *)
  p_upload_bytes : int;                        (* round 0's Upload frame *)
  p_gc_minor : float;
  p_gc_major : int;
  p_first : state * Scheme.enc_table;          (* round 0's client and table *)
  p_failed : int;
}

(* One in-process replay of the workload's rounds, each request
   encoded, handled by a fresh Server.t and decoded as on the wire.
   With [traced] the program's metrics are on and every layer call is
   timed. Per-call times and counts cover the measured operations only,
   save encrypt_table's times and the warm-up counts. *)
let replay w ~seed ~seconds ~traced =
  Metrics.set_enabled traced;
  let server = Server.create () in
  let samples = Hashtbl.create 16 in
  let measuring = ref false and bytes = ref 0 in
  let timed : 'a. string -> (unit -> 'a) -> 'a =
   fun name f ->
    if traced && (!measuring || name = "scheme.encrypt_table_ms") then begin
      let t0 = now () in
      let r = f () in
      let ms = ms_since t0 in
      Hashtbl.replace samples name (ms :: Option.value (Hashtbl.find_opt samples name) ~default:[]);
      r
    end
    else f ()
  in
  let exchange req =
    let frame = timed "protocol.encode_ms" (fun () -> Protocol.encode_request req) in
    let reply = timed "server.handle_ms" (fun () -> Server.handle_encoded server frame) in
    if !measuring then bytes := !bytes + String.length frame + String.length reply;
    timed "protocol.decode_ms" (fun () -> Protocol.decode_response reply)
  in
  let s = { exchange; timed } in
  let base = base_rows w ~seed in
  let counts = ref [] and warm_counts = ref [] and first = ref None and failed = ref 0 in
  let wall = ref 0. and ops = ref 0 and gc_minor = ref 0. and gc_major = ref 0 in
  List.iter
    (fun (rep, slice) ->
      let st, enc = setup s w ~rep base in
      if rep = 0 then first := Some (st, enc);
      let c0 = counters () in
      for _ = 1 to w.warmup_queries do
        run_query s st 0
      done;
      let c1 = counters () in
      measuring := true;
      let g0 = Gc.quick_stat () and t0 = now () in
      List.iter (run_op s st) slice;
      let t1 = now () and g1 = Gc.quick_stat () in
      measuring := false;
      let c2 = counters () in
      warm_counts := add_counts !warm_counts (delta c0 c1);
      counts := add_counts !counts (delta c1 c2);
      wall := !wall +. (t1 -. t0);
      ops := !ops + List.length slice;
      gc_minor := !gc_minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      gc_major := !gc_major + (g1.Gc.major_collections - g0.Gc.major_collections);
      failed := !failed + mismatches st)
    (schedule w ~seed ~seconds);
  Metrics.set_enabled false;
  let first = Option.get !first in
  { p_wall = !wall; p_ops = !ops; p_counts = !counts; p_warm_counts = !warm_counts;
    p_samples = samples; p_bytes = !bytes; p_upload_bytes = upload_bytes (snd first);
    p_gc_minor = !gc_minor; p_gc_major = !gc_major; p_first = first; p_failed = !failed }

(* Median seconds per call of [f]: [batches] batches of calls, each
   sized to last about 25 ms, after one calibration call. *)
let unit_time ?(batches = 5) f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  let once = max 1e-7 (now () -. t0) in
  let reps = max 1 (int_of_float (0.025 /. once)) in
  let per_call =
    List.init batches (fun _ ->
        let t = now () in
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done;
        (now () -. t) /. float_of_int reps)
  in
  median per_call

(* Cost of one k-pair product of pairings with precomputed first
   arguments, as Scheme.aggregate computes them: (fixed part per product,
   marginal part per pair), in seconds. *)
let prod_costs (pk : Bgn.public_key) drbg ~batches =
  let k = 4 in
  let cts = Array.init k (fun i -> Bgn.enc1_int pk drbg (i + 1)) in
  let pres = Array.map (Bgn.precompute1 pk) cts in
  let pairs m = List.init m (fun i -> (pres.(i), cts.((i + 1) mod k))) in
  let t1 = unit_time ~batches (fun () -> Bgn.mul_many_pre pk (pairs 1)) in
  let tk = unit_time ~batches (fun () -> Bgn.mul_many_pre pk (pairs k)) in
  let per_pair = (tk -. t1) /. float_of_int (k - 1) in
  (t1 -. per_pair, per_pair)

(* Unit costs of one public function each, on a fresh key of [bits]. *)
let unit_axis ~seed bits =
  let drbg = Drbg.create (Printf.sprintf "perfbench/%d/units/%d" seed bits) in
  let kp = Bgn.keygen ~bits drbg in
  let pk = kp.Bgn.pk in
  let group = pk.Bgn.group in
  let p = group.Pairing.p and n = Bgn.n pk in
  let rng = Drbg.rng drbg in
  let batches = if bits >= 1024 then 2 else if bits >= 512 then 3 else 5 in
  let a = Z.random_below rng p and b = Z.random_below rng p and k = Z.random_below rng n in
  let x = { Fp2.re = a; im = b } and y = { Fp2.re = b; im = a } in
  let c1 = Bgn.enc1_int pk drbg 3 and c2 = Bgn.enc1_int pk drbg 5 in
  let max = 1024 in
  let table = Bgn.make_dec1_table kp ~max in
  let _, per_pair = prod_costs pk drbg ~batches in
  let ns v = v *. 1e9 and us v = v *. 1e6 in
  let name fmt = Printf.sprintf fmt bits in
  [ metric (name "bigint.mul_ns.%d") "ns" (ns (unit_time ~batches (fun () -> Z.mulm a b p)));
    metric (name "bigint.powm_us.%d") "us" (us (unit_time ~batches (fun () -> Z.powm a k p)));
    metric (name "pairing.fp2_mul_ns.%d") "ns" (ns (unit_time ~batches (fun () -> Fp2.mul ~p x y)));
    metric (name "pairing.curve_smul_us.%d") "us"
      (us (unit_time ~batches (fun () -> Curve.mul group.Pairing.curve k c1)));
    metric (name "pairing.pairing_us.%d") "us"
      (us (unit_time ~batches (fun () -> Pairing.pairing group c1 c2)));
    metric (name "pairing.prod_per_pair_us.%d") "us" (us per_pair);
    metric (name "bgn.enc1_us.%d") "us" (us (unit_time ~batches (fun () -> Bgn.enc1_int pk drbg 7)));
    metric (name "bgn.dec1_us.%d") "us"
      (us (unit_time ~batches (fun () -> Bgn.dec1 kp table ~max c2))) ]

(* B^arity: the indicator blocks each row's shift is computed for. *)
let blocks w (pp : Scheme.public_params) =
  int_of_float (float_of_int pp.Scheme.config.Config.bucket_size ** float_of_int (List.length w.group_by))

(* 1 − Σ(count × unit cost) / measured Scheme.aggregate time, for the
   workload's query over its uploaded table, warm. Unit costs are taken
   on the workload's own key. *)
let closure w (st : state) (enc : Scheme.enc_table) =
  let pk = st.client.Scheme.kp.Bgn.pk in
  let tok = Scheme.token st.client (query_for w 0) in
  ignore (Scheme.aggregate enc tok);
  let reps = 5 in
  let aggregate_ms =
    median
      (List.init reps (fun _ ->
           let t0 = now () in
           ignore (Scheme.aggregate enc tok);
           ms_since t0))
  in
  Metrics.set_enabled true;
  let c0 = counters () in
  ignore (Scheme.aggregate enc tok);
  let d = delta c0 (counters ()) in
  Metrics.set_enabled false;
  let drbg = Drbg.create "perfbench/closure" in
  let c1 = Bgn.enc1_int pk drbg 3 and c2 = Bgn.enc1_int pk drbg 5 in
  let e1 = Bgn.mul pk c1 c2 and e2 = Bgn.mul pk c2 c1 in
  let fixed, per_pair = prod_costs pk drbg ~batches:5 in
  (* A shift multiplies by the indicator polynomials' coefficients, and
     a scalar's cost depends on its bits (−1 mod n costs a full-width
     multiplication, 1 almost nothing): time smul1 over exactly the
     coefficients a row uses, one per non-constant term per block. *)
  let bucket_size = st.client.Scheme.pp.Scheme.config.Config.bucket_size in
  let arity = List.length w.group_by in
  let coeffs =
    List.concat
      (List.init (blocks w st.client.Scheme.pp) (fun bi ->
           Sagma.Polynomial.multivariate_indicator ~n:(Bgn.n pk) ~bucket_size
             (Scheme.block_vector ~bucket_size ~arity bi)
           |> List.filter_map (fun (t : Sagma.Polynomial.term) ->
                  if Array.for_all (( = ) 0) t.exponents then None else Some t.coeff)))
  in
  let smul1 =
    List.fold_left (fun acc k -> acc +. unit_time (fun () -> Bgn.smul1 pk k c1)) 0. coeffs
    /. float_of_int (List.length coeffs)
  in
  let terms =
    [ ("bgn.smul1", smul1);
      ("bgn.add1", unit_time (fun () -> Bgn.add1 pk c1 c2));
      ("bgn.add2", unit_time (fun () -> Bgn.add2 pk e1 e2));
      ("pairing.prod_calls", fixed);
      ("pairing.pairings", per_pair) ]
  in
  let predicted_ms = 1000. *. List.fold_left (fun acc (k, u) -> acc +. (count d k *. u)) 0. terms in
  List.iter
    (fun (k, u) -> Printf.printf "  closure: %-20s %8.0f x %10.3f us\n" k (count d k) (u *. 1e6))
    terms;
  Printf.printf "  closure: predicted %.3f ms, measured %.3f ms\n%!" predicted_ms aggregate_ms;
  (aggregate_ms, 1. -. (predicted_ms /. aggregate_ms), d)

let rtt_ms port =
  let fd = connect port 200 in
  let rtts =
    List.init 300 (fun _ ->
        let t0 = now () in
        ignore (Transport.call fd Protocol.List_tables);
        ms_since t0)
  in
  Unix.close fd;
  median rtts

(* The traced run replays at most this many seconds' worth of the
   operation sequence in at most this many rounds, three times over,
   so that it stays well inside one run's time limit. *)
let trace_seconds_max = 10
let trace_rounds_max = 3

(* Seconds' worth of the ingest probe's sequence a traced run replays. *)
let probe_seconds = 2

(* The two traced passes of one replay must agree on every count and
   every encoded byte. *)
let same_work what a b =
  if a.p_counts <> b.p_counts || a.p_warm_counts <> b.p_warm_counts then
    Some (what ^ ": per-layer counts differ between two same-seed traced passes")
  else if a.p_upload_bytes <> b.p_upload_bytes || a.p_bytes <> b.p_bytes then
    Some (what ^ ": encoded bytes differ between two same-seed traced passes")
  else None

let traced_run w ~seed ~seconds ~port =
  let seconds = min seconds trace_seconds_max in
  let w = { w with rounds = min w.rounds trace_rounds_max } in
  (* Untraced between two traced passes: the counts of the two traced
     passes must agree exactly, and their mean time against the
     untraced pass gives the tracing overhead. *)
  let traced1 = replay w ~seed ~seconds ~traced:true in
  let untraced = replay w ~seed ~seconds ~traced:false in
  let traced2 = replay w ~seed ~seconds ~traced:true in
  let probe1 = replay ingest_probe ~seed ~seconds:probe_seconds ~traced:true in
  let probe2 = replay ingest_probe ~seed ~seconds:probe_seconds ~traced:true in
  let determinism =
    match same_work w.name traced1 traced2 with
    | Some _ as problem -> problem
    | None -> same_work ingest_probe.name probe1 probe2
  in
  let st, enc = traced1.p_first in
  let aggregate_ms, unexplained, agg_counts = closure w st enc in
  let ops = float_of_int traced1.p_ops in
  let per_op k = count traced1.p_counts k /. ops in
  let warm k = count traced1.p_warm_counts k /. float_of_int w.rounds in
  let layer_ms ?(pass = traced1) k =
    match Hashtbl.find_opt pass.p_samples k with
    | Some xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
    | None -> 0.
  in
  let probe_per_op k = count probe1.p_counts k /. float_of_int probe1.p_ops in
  (* Scheme.aggregate looks up one precomputation per row, block and
     channel of the value column (COUNT without dummy rows pairs
     nothing). *)
  let pp = st.client.Scheme.pp in
  let attempts =
    match w.aggregate with
    | Query.Count -> 0.
    | Query.Sum _ | Query.Avg _ ->
      count agg_counts "scheme.agg.rows"
      *. float_of_int (blocks w pp * Crt.channels pp.Scheme.channels)
  in
  let hit_ratio = if attempts > 0. then count agg_counts "pairing.precomp_hits" /. attempts else 0. in
  let layers =
    [ metric "scheme.token_ms" "ms" (layer_ms "scheme.token_ms");
      metric "scheme.decrypt_ms" "ms" (layer_ms "scheme.decrypt_ms");
      metric "scheme.aggregate_ms" "ms" aggregate_ms;
      metric "scheme.agg.rows" "count" (per_op "scheme.agg.rows");
      metric "scheme.encrypt_table_ms" "ms" (layer_ms "scheme.encrypt_table_ms");
      metric "pairing.pairings" "count" (per_op "pairing.pairings");
      metric "pairing.miller_steps" "count" (per_op "pairing.miller_steps");
      metric "pairing.prod_calls" "count" (per_op "pairing.prod_calls");
      metric "pairing.precomp_hit_ratio" "ratio" hit_ratio;
      metric "bgn.smul1" "count" (per_op "bgn.smul1");
      metric "bgn.add1" "count" (per_op "bgn.add1");
      metric "bgn.add2" "count" (per_op "bgn.add2");
      metric "bgn.mul" "count" (per_op "bgn.mul");
      metric "bgn.enc1" "count" (per_op "bgn.enc1");
      metric "bgn.dlog.solves" "count" (per_op "bgn.dlog.solves");
      metric "bgn.dlog.giant_steps" "count" (per_op "bgn.dlog.giant_steps");
      metric "bgn.dlog.table_builds" "count" (per_op "bgn.dlog.table_builds");
      metric "warmup.pairing.miller_steps" "count" (warm "pairing.miller_steps");
      metric "warmup.bgn.dlog.giant_steps" "count" (warm "bgn.dlog.giant_steps");
      metric "warmup.bgn.dlog.table_builds" "count" (warm "bgn.dlog.table_builds");
      metric "bigint.powm" "count" (per_op "bigint.powm");
      metric "bigint.invm" "count" (per_op "bigint.invm");
      metric "protocol.encode_ms" "ms" (layer_ms "protocol.encode_ms");
      metric "protocol.decode_ms" "ms" (layer_ms "protocol.decode_ms");
      metric "protocol.bytes_per_op" "bytes" (float_of_int traced1.p_bytes /. ops);
      metric "server.handle_ms" "ms" (layer_ms "server.handle_ms");
      metric "transport.rtt_ms" "ms" (rtt_ms port);
      metric "gc.minor_words_per_op" "words" (untraced.p_gc_minor /. ops);
      metric "gc.major_collections" "count" (float_of_int untraced.p_gc_major /. ops);
      metric "scheme.aggregate.unexplained_frac" "ratio" unexplained;
      metric "trace.overhead_frac" "ratio" ((((traced1.p_wall +. traced2.p_wall) /. 2.) /. untraced.p_wall) -. 1.) ]
  in
  (* The write path, from the ingest probe: times per call, counts per
     operation (appends and their batch queries). *)
  let ingest =
    [ metric "ingest.scheme.append_payload_ms" "ms" (layer_ms ~pass:probe1 "scheme.append_payload_ms");
      metric "ingest.server.handle_ms" "ms" (layer_ms ~pass:probe1 "server.handle_ms");
      metric "ingest.protocol.bytes_per_op" "bytes" (float_of_int probe1.p_bytes /. float_of_int probe1.p_ops);
      metric "ingest.bgn.enc1" "count" (probe_per_op "bgn.enc1");
      metric "ingest.pairing.pairings" "count" (probe_per_op "pairing.pairings");
      metric "ingest.bgn.dlog.table_builds" "count" (probe_per_op "bgn.dlog.table_builds");
      metric "ingest.sse.searches" "count" (probe_per_op "sse.searches");
      metric "ingest.sse.postings_scanned" "count" (probe_per_op "sse.postings_scanned") ]
  in
  let axis = List.concat_map (unit_axis ~seed) [ 64; 256; 512; 1024 ] in
  let failed = untraced.p_failed + traced1.p_failed + traced2.p_failed + probe1.p_failed + probe2.p_failed in
  let attempted p r = p.p_ops + (r.rounds * (r.warmup_queries + 1)) in
  (layers @ ingest @ axis, (3 * attempted traced1 w) + (2 * attempted probe1 ingest_probe), failed, determinism)

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 and port = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_int seconds, "S (operation budget = S x nominal rate)");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--port", Arg.Set_int port, "sagma_server port") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench_client --workload NAME --seed N --seconds S --trace 0|1 --port P";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  let loop0 = ref_loop_ms () in
  let table, attempted, failed, problem, extra_report =
    if !trace = 0 then begin
      let table, a, f, r = end_to_end w ~seed:!seed ~seconds:!seconds ~port:!port in
      (table, a, f, None, r)
    end
    else begin
      let m, a, f, det = traced_run w ~seed:!seed ~seconds:!seconds ~port:!port in
      (List.map (fun m -> (m, true)) m, a, f, det, [])
    end
  in
  let loop1 = ref_loop_ms () in
  Option.iter (fun msg -> Printf.printf "DETERMINISM CHECK FAILED: %s\n%!" msg) problem;
  Printf.printf "%s seed %d, %d attempted, %d failed\n" w.name !seed attempted failed;
  emit ~attempted ~failed:(if problem = None then failed else failed + 1) ~table
    ~report:
      ([ ("host.ref_loop_ms", Printf.sprintf "[%s,%s]" (json_float loop0) (json_float loop1));
        ("ocaml_version", "\"" ^ Sys.ocaml_version ^ "\"");
        ("workload_params",
         Printf.sprintf
           "{\"bits\":%d,\"base_rows\":%d,\"batch\":%d,\"nominal_rate\":%s,\"rounds\":%d,\"warmup_queries\":%d}"
           w.bits w.base_rows w.batch (json_float w.nominal_rate) w.rounds w.warmup_queries) ]
      @ extra_report)

let metric_name raw =
  let buf = Buffer.create (String.length raw + 10) in
  Buffer.add_string buf "replicaml_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    raw;
  Buffer.contents buf

(* Label keys get the same character sanitation as metric names but no
   namespace prefix. *)
let label_name raw =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    raw

let escape_label_value v =
  let buf = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let label_set buf labels =
  match labels with
  | [] -> ()
  | _ ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "%s=\"%s\"" (label_name k) (escape_label_value v)))
        labels;
      Buffer.add_char buf '}'

let add_value buf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string buf (string_of_int (int_of_float v))
  else Buffer.add_string buf (Printf.sprintf "%.9g" v)

let scalar buf name labels v =
  Buffer.add_string buf name;
  label_set buf labels;
  Buffer.add_char buf ' ';
  add_value buf v;
  Buffer.add_char buf '\n'

let scalar_line ?timestamp name labels v =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (metric_name name);
  label_set buf labels;
  Buffer.add_char buf ' ';
  add_value buf v;
  (match timestamp with
  | None -> ()
  | Some ts ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int ts));
  Buffer.contents buf

(* Renders the full {!Metrics} registry — instruments and collectors —
   as one text exposition. Samples arrive sorted by (name, labels), so
   each family is consecutive and gets exactly one TYPE line. *)
let expose () =
  let buf = Buffer.create 4096 in
  let last_family = ref "" in
  List.iter
    (fun (s : Metrics.sample) ->
      let n = metric_name s.Metrics.s_name in
      let kind =
        match s.Metrics.s_value with
        | Metrics.Sample_counter _ -> "counter"
        | Metrics.Sample_gauge _ -> "gauge"
        | Metrics.Sample_histogram _ -> "histogram"
      in
      if n <> !last_family then begin
        last_family := n;
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" n kind)
      end;
      match s.Metrics.s_value with
      | Metrics.Sample_counter v | Metrics.Sample_gauge v ->
          scalar buf n s.Metrics.s_labels v
      | Metrics.Sample_histogram h ->
          List.iter
            (fun (le, cum) ->
              scalar buf (n ^ "_bucket")
                (s.Metrics.s_labels @ [ ("le", string_of_int le) ])
                (float_of_int cum))
            h.Metrics.hs_buckets;
          scalar buf (n ^ "_bucket")
            (s.Metrics.s_labels @ [ ("le", "+Inf") ])
            (float_of_int h.Metrics.hs_count);
          scalar buf (n ^ "_sum") s.Metrics.s_labels
            (float_of_int h.Metrics.hs_sum);
          scalar buf (n ^ "_count") s.Metrics.s_labels
            (float_of_int h.Metrics.hs_count))
    (Metrics.samples ());
  Buffer.contents buf

(* --- validation --- *)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let scan_name line pos =
  let n = String.length line in
  if pos >= n || not (is_name_start line.[pos]) then None
  else begin
    let i = ref pos in
    while !i < n && is_name_char line.[!i] do
      incr i
    done;
    Some (String.sub line pos (!i - pos), !i)
  end

(* labels: '{' name '="' chars-with-\-escapes '"' (',' ...)* '}';
   returns the parsed (name, raw value) pairs plus the position after
   the closing brace. *)
let scan_labels line pos =
  let n = String.length line in
  if pos >= n || line.[pos] <> '{' then Some ([], pos)
  else begin
    let i = ref (pos + 1) in
    let ok = ref true in
    let labels = ref [] in
    let scan_one () =
      match scan_name line !i with
      | None -> ok := false
      | Some (lname, p) ->
          i := p;
          if !i + 1 < n && line.[!i] = '=' && line.[!i + 1] = '"' then begin
            i := !i + 2;
            let vstart = !i in
            let closed = ref false in
            while (not !closed) && !i < n do
              if line.[!i] = '\\' then i := !i + 2
              else if line.[!i] = '"' then begin
                labels :=
                  (lname, String.sub line vstart (!i - vstart)) :: !labels;
                closed := true;
                incr i
              end
              else incr i
            done;
            if not !closed then ok := false
          end
          else ok := false
    in
    if !i < n && line.[!i] = '}' then incr i
    else begin
      scan_one ();
      while !ok && !i < n && line.[!i] = ',' do
        incr i;
        scan_one ()
      done;
      if !ok && !i < n && line.[!i] = '}' then incr i else ok := false
    end;
    if !ok then Some (List.rev !labels, !i) else None
  end

let parse_value s =
  match s with
  | "+Inf" -> Some infinity
  | "-Inf" -> Some neg_infinity
  | "NaN" -> Some Float.nan
  | _ -> float_of_string_opt s

(* Histogram families get semantic checks on top of the line grammar:
   only _bucket/_sum/_count samples, le labels parseable, cumulative
   counts and le bounds non-decreasing, a final le="+Inf" bucket whose
   value equals _count, and _sum present. A family may carry several
   label sets (e.g. one series per shard); every check applies within
   one label set (le excluded), never across them. *)
type hist_group = {
  mutable buckets_rev : (float * float) list;
  mutable sum_seen : bool;
  mutable count_value : float option;
}

type hist_acc = (string, hist_group) Hashtbl.t

let group_key labels =
  List.filter (fun (k, _) -> k <> "le") labels
  |> List.sort compare
  |> List.map (fun (k, v) -> k ^ "=" ^ v)
  |> String.concat ","

let hist_group (acc : hist_acc) labels =
  let key = group_key labels in
  match Hashtbl.find_opt acc key with
  | Some g -> g
  | None ->
      let g = { buckets_rev = []; sum_seen = false; count_value = None } in
      Hashtbl.replace acc key g;
      g

let validate contents =
  let lines = String.split_on_char '\n' contents in
  let samples = ref 0 in
  let family = ref None in
  let family_seen = ref true in
  let hist : hist_acc option ref = ref None in
  let err lineno msg line =
    Error (Printf.sprintf "line %d: %s: %S" lineno msg line)
  in
  let finalize_family lineno line =
    let fname = Option.value ~default:"?" !family in
    if not !family_seen then
      err lineno
        (Printf.sprintf "# TYPE %s declared but no samples follow" fname)
        line
    else
      match !hist with
      | None -> Ok ()
      | Some acc ->
          hist := None;
          let check_group (h : hist_group) =
            let buckets = List.rev h.buckets_rev in
            let rec monotone = function
              | (le1, c1) :: ((le2, c2) :: _ as rest) ->
                  if le2 < le1 then
                    err lineno
                      (Printf.sprintf "histogram %s: le bounds not increasing"
                         fname)
                      line
                  else if c2 < c1 then
                    err lineno
                      (Printf.sprintf
                         "histogram %s: cumulative bucket counts decrease" fname)
                      line
                  else monotone rest
              | _ -> Ok ()
            in
            match List.rev buckets with
            | [] ->
                err lineno
                  (Printf.sprintf "histogram %s has no _bucket samples" fname)
                  line
            | (last_le, last_cum) :: _ -> (
                let ( let* ) = Result.bind in
                let* () = monotone buckets in
                if last_le <> infinity then
                  err lineno
                    (Printf.sprintf "histogram %s: missing le=\"+Inf\" bucket"
                       fname)
                    line
                else if not h.sum_seen then
                  err lineno
                    (Printf.sprintf "histogram %s: missing _sum sample" fname)
                    line
                else
                  match h.count_value with
                  | None ->
                      err lineno
                        (Printf.sprintf "histogram %s: missing _count sample"
                           fname)
                        line
                  | Some c when c <> last_cum ->
                      err lineno
                        (Printf.sprintf
                           "histogram %s: _count %g disagrees with le=\"+Inf\" \
                            bucket %g"
                           fname c last_cum)
                        line
                  | Some _ -> Ok ())
          in
          if Hashtbl.length acc = 0 then
            err lineno
              (Printf.sprintf "histogram %s has no _bucket samples" fname)
              line
          else
            Hashtbl.fold
              (fun _ g r -> match r with Ok () -> check_group g | e -> e)
              acc (Ok ())
  in
  let record_sample lineno line name labels value =
    match (!family, !hist) with
    | Some f, Some acc when String.starts_with ~prefix:f name -> (
        family_seen := true;
        let suffix = String.sub name (String.length f)
            (String.length name - String.length f)
        in
        match suffix with
        | "_bucket" -> (
            match List.assoc_opt "le" labels with
            | None ->
                err lineno
                  (Printf.sprintf "histogram %s: _bucket without le label" f)
                  line
            | Some le_str -> (
                match parse_value le_str with
                | None ->
                    err lineno
                      (Printf.sprintf "histogram %s: unparseable le=%S" f
                         le_str)
                      line
                | Some le ->
                    let h = hist_group acc labels in
                    h.buckets_rev <- (le, value) :: h.buckets_rev;
                    Ok ()))
        | "_sum" ->
            (hist_group acc labels).sum_seen <- true;
            Ok ()
        | "_count" ->
            (hist_group acc labels).count_value <- Some value;
            Ok ()
        | _ ->
            err lineno
              (Printf.sprintf
                 "histogram %s: unexpected sample %s (want _bucket/_sum/_count)"
                 f name)
              line)
    | Some f, None when String.starts_with ~prefix:f name ->
        family_seen := true;
        Ok ()
    | _ -> Ok ()
  in
  let rec check lineno = function
    | [] -> (
        match finalize_family lineno "<end of input>" with
        | Ok () -> Ok !samples
        | Error e -> Error e)
    | line :: rest ->
        let result =
          if line = "" then Ok ()
          else if String.length line > 0 && line.[0] = '#' then begin
            (* comment: "# HELP name ..." | "# TYPE name type" | free text *)
            if String.starts_with ~prefix:"# TYPE " line then begin
              match scan_name line 7 with
              | None -> err lineno "malformed # TYPE" line
              | Some (name, p) -> (
                  let rest_str =
                    String.trim (String.sub line p (String.length line - p))
                  in
                  match rest_str with
                  | "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    -> (
                      match finalize_family lineno line with
                      | Error e -> Error e
                      | Ok () ->
                          family := Some name;
                          family_seen := false;
                          hist :=
                            (if rest_str = "histogram" then
                               Some (Hashtbl.create 4 : hist_acc)
                             else None);
                          Ok ())
                  | _ -> err lineno "unknown metric type" line)
            end
            else if String.starts_with ~prefix:"# HELP " line then Ok ()
            else if String.trim line = "# EOF" then
              (* OpenMetrics terminator (the Timeseries export ends with
                 one); nothing may follow but trailing blank lines. *)
              Ok ()
            else err lineno "malformed comment (expected # HELP or # TYPE)" line
          end
          else begin
            match scan_name line 0 with
            | None -> err lineno "malformed metric name" line
            | Some (name, p) -> (
                match scan_labels line p with
                | None -> err lineno "malformed label set" line
                | Some (labels, p) -> (
                    let tail =
                      String.sub line p (String.length line - p)
                      |> String.trim
                    in
                    let fields =
                      String.split_on_char ' ' tail
                      |> List.filter (fun f -> f <> "")
                    in
                    let value =
                      match fields with
                      | [ v ] -> parse_value v
                      | [ v; ts ] ->
                          if int_of_string_opt ts <> None then parse_value v
                          else None
                      | _ -> None
                    in
                    match value with
                    | None -> err lineno "malformed sample value" line
                    | Some value -> (
                        match record_sample lineno line name labels value with
                        | Error e -> Error e
                        | Ok () ->
                            incr samples;
                            Ok ())))
          end
        in
        (match result with Ok () -> check (lineno + 1) rest | Error e -> Error e)
  in
  check 1 lines

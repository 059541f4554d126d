#include "core/rest_api.h"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/strings.h"

namespace mps::core {

int http_status(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return 200;
    case ErrorCode::kInvalidArgument: return 400;
    case ErrorCode::kUnauthorized: return 401;
    case ErrorCode::kForbidden: return 403;
    case ErrorCode::kNotFound: return 404;
    case ErrorCode::kConflict: return 409;
    case ErrorCode::kUnavailable: return 503;
    case ErrorCode::kInternal: return 500;
  }
  return 500;
}

void GoFlowRestApi::register_job_type(const std::string& type,
                                      GoFlowServer::Job job) {
  job_types_[type] = std::move(job);
}

RestResponse GoFlowRestApi::error_response(const Error& error) {
  return RestResponse{http_status(error.code),
                      Value(Object{{"error", Value(error_code_name(error.code))},
                                   {"message", Value(error.message)}})};
}

RestResponse GoFlowRestApi::not_found() {
  return RestResponse{404, Value(Object{{"error", Value("not_found")},
                                        {"message", Value("no such route")}})};
}

namespace {

/// Parses roles from their wire names.
std::optional<Role> role_from_name(const std::string& name) {
  if (name == "client") return Role::kClient;
  if (name == "manager") return Role::kManager;
  if (name == "admin") return Role::kAdmin;
  return std::nullopt;
}

std::optional<double> query_double(
    const std::map<std::string, std::string>& query, const std::string& key) {
  auto it = query.find(key);
  if (it == query.end()) return std::nullopt;
  char* end = nullptr;
  double parsed = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str()) return std::nullopt;
  return parsed;
}

/// Integer query parameter: a value `Int` cannot hold (infinities and NaN
/// included) cannot be cast, so it is a 400, not a silent clamp.
template <typename Int>
Status query_integer(const std::map<std::string, std::string>& query,
                     const std::string& key, std::optional<Int>& out) {
  std::optional<double> v = query_double(query, key);
  if (!v.has_value()) return {};
  // Int holds [min, 2^digits); both bounds are exact doubles.
  const double lo = static_cast<double>(std::numeric_limits<Int>::min());
  const double hi = std::ldexp(1.0, std::numeric_limits<Int>::digits);
  if (!(*v >= lo && *v < hi))
    return err(ErrorCode::kInvalidArgument,
               "query parameter '" + key + "' out of range");
  out = static_cast<Int>(*v);
  return {};
}

}  // namespace

Result<ObservationFilter> GoFlowRestApi::parse_filter(
    const RestRequest& request, const std::string& app) {
  ObservationFilter filter;
  filter.app = app;
  const auto& q = request.query;
  if (auto it = q.find("user"); it != q.end()) filter.user = it->second;
  if (auto it = q.find("model"); it != q.end()) filter.model = it->second;
  if (auto it = q.find("mode"); it != q.end()) filter.mode = it->second;
  if (auto it = q.find("provider"); it != q.end()) filter.provider = it->second;
  std::optional<std::size_t> limit;
  Status s = query_integer(q, "from", filter.from);
  if (s.ok()) s = query_integer(q, "until", filter.until);
  if (s.ok()) s = query_integer(q, "limit", limit);
  if (!s.ok()) return s.error();
  if (auto it = q.find("localized"); it != q.end())
    filter.localized_only = it->second == "true" || it->second == "1";
  if (auto acc = query_double(q, "max_accuracy")) filter.max_accuracy_m = *acc;
  if (limit.has_value()) filter.limit = *limit;
  return filter;
}

RestResponse GoFlowRestApi::handle(const RestRequest& request) {
  // Path segments, dropping the empty leading segment of "/...".
  std::vector<std::string> parts = split(request.path, '/');
  if (!parts.empty() && parts.front().empty()) parts.erase(parts.begin());
  if (!parts.empty() && parts.back().empty()) parts.pop_back();  // trailing /
  if (parts.empty()) return not_found();

  if (parts[0] == "apps") return handle_apps(request, parts);
  if (parts[0] == "jobs") return handle_jobs(request, parts);

  // GET /metrics: one document with every counter/gauge/histogram of the
  // deployment (broker, client ingest, docstore, assimilation — whatever
  // was wired into the shared registry).
  if (parts.size() == 1 && parts[0] == "metrics" && request.method == "GET") {
    obs::Registry* registry = server_.metrics();
    if (registry == nullptr)
      return error_response(
          err(ErrorCode::kUnavailable, "no metrics registry attached"));
    auto fmt = request.query.find("format");
    if (fmt != request.query.end() && fmt->second == "text")
      return RestResponse{200,
                          Value(Object{{"text", Value(registry->export_text())}})};
    return RestResponse{200, registry->export_json()};
  }

  // GET /metrics/series: the windowed time-series (rates and rolling
  // quantiles per window) when a TimeSeries is attached to the server.
  if (parts.size() == 2 && parts[0] == "metrics" && parts[1] == "series" &&
      request.method == "GET") {
    obs::TimeSeries* series = server_.timeseries();
    if (series == nullptr)
      return error_response(
          err(ErrorCode::kUnavailable, "no time series attached"));
    return RestResponse{200, series->to_json()};
  }
  return not_found();
}

RestResponse GoFlowRestApi::handle_apps(const RestRequest& request,
                                        const std::vector<std::string>& parts) {
  // POST /apps
  if (parts.size() == 1) {
    if (request.method != "POST") return not_found();
    std::vector<std::string> private_fields;
    if (const Value* fields = request.body.find("private_fields")) {
      if (fields->is_array())
        for (const Value& f : fields->as_array())
          if (f.is_string()) private_fields.push_back(f.as_string());
    }
    auto result = server_.register_app(request.body.get_string("id"),
                                       std::move(private_fields));
    if (!result.ok()) return error_response(result.error());
    return RestResponse{
        201, Value(Object{{"app", Value(result.value().app)},
                          {"admin_token", Value(result.value().admin_token)}})};
  }

  const std::string& app = parts[1];

  // /apps/{app}/accounts[...]
  if (parts.size() >= 3 && parts[2] == "accounts") {
    if (parts.size() == 3 && request.method == "POST") {
      std::optional<Role> role =
          role_from_name(request.body.get_string("role", "client"));
      if (!role.has_value())
        return error_response(err(ErrorCode::kInvalidArgument, "bad role"));
      auto result = server_.register_account(
          request.auth_token, app, request.body.get_string("user"), *role);
      if (!result.ok()) return error_response(result.error());
      return RestResponse{201,
                          Value(Object{{"token", Value(result.value())}})};
    }
    if (parts.size() == 4 && request.method == "DELETE") {
      Status status = server_.remove_account(request.auth_token, app, parts[3]);
      if (!status.ok()) return error_response(status.error());
      return RestResponse{204, Value()};
    }
    return not_found();
  }

  // /apps/{app}/clients/{client}/...
  if (parts.size() >= 5 && parts[2] == "clients") {
    const std::string& client = parts[3];
    const std::string& action = parts[4];
    if (action == "login" && request.method == "POST") {
      auto result = server_.login_client(request.auth_token, app, client);
      if (!result.ok()) return error_response(result.error());
      return RestResponse{
          200, Value(Object{{"exchange", Value(result.value().exchange)},
                            {"queue", Value(result.value().queue)}})};
    }
    if (action == "logout" && request.method == "POST") {
      Status status = server_.logout_client(request.auth_token, app, client);
      if (!status.ok()) return error_response(status.error());
      return RestResponse{204, Value()};
    }
    if (action == "subscriptions") {
      std::string location = request.body.get_string("location");
      std::string datatype = request.body.get_string("datatype");
      if (request.method == "POST") {
        Status status = server_.subscribe(request.auth_token, app, client,
                                          location, datatype);
        if (!status.ok()) return error_response(status.error());
        return RestResponse{201, Value()};
      }
      if (request.method == "DELETE") {
        Status status = server_.unsubscribe(request.auth_token, app, client,
                                            location, datatype);
        if (!status.ok()) return error_response(status.error());
        return RestResponse{204, Value()};
      }
    }
    return not_found();
  }

  // /apps/{app}/observations[...]
  if (parts.size() >= 3 && parts[2] == "observations" &&
      request.method == "GET") {
    Result<ObservationFilter> parsed = parse_filter(request, app);
    if (!parsed.ok()) return error_response(parsed.error());
    const ObservationFilter& filter = parsed.value();
    if (parts.size() == 3) {
      auto result = server_.query_observations(request.auth_token, filter);
      if (!result.ok()) return error_response(result.error());
      Array docs(result.value().begin(), result.value().end());
      return RestResponse{200,
                          Value(Object{{"observations", Value(std::move(docs))}})};
    }
    if (parts.size() == 4 && parts[3] == "count") {
      auto result = server_.count_observations(request.auth_token, filter);
      if (!result.ok()) return error_response(result.error());
      return RestResponse{
          200, Value(Object{{"count", Value(static_cast<std::int64_t>(
                                          result.value()))}})};
    }
    if (parts.size() == 4 && parts[3] == "export") {
      auto fmt = request.query.find("format");
      if (fmt != request.query.end() && fmt->second == "csv") {
        auto result = server_.export_csv(request.auth_token, filter);
        if (!result.ok()) return error_response(result.error());
        return RestResponse{200, Value(Object{{"csv", Value(result.value())}})};
      }
      auto result = server_.export_json(request.auth_token, filter);
      if (!result.ok()) return error_response(result.error());
      return RestResponse{200,
                          Value(Object{{"json", Value(result.value())}})};
    }
    return not_found();
  }

  // GET /apps/{app}/analytics
  if (parts.size() == 3 && parts[2] == "analytics" &&
      request.method == "GET") {
    auto result = server_.analytics(app);
    if (!result.ok()) return error_response(result.error());
    const AppAnalytics& analytics = result.value();
    return RestResponse{
        200,
        Value(Object{
            {"clients_logged_in",
             Value(static_cast<std::int64_t>(analytics.clients_logged_in))},
            {"batches_ingested",
             Value(static_cast<std::int64_t>(analytics.batches_ingested))},
            {"observations_stored",
             Value(static_cast<std::int64_t>(analytics.observations_stored))},
            {"observations_localized",
             Value(static_cast<std::int64_t>(analytics.observations_localized))},
            {"subscriptions",
             Value(static_cast<std::int64_t>(analytics.subscriptions))},
            {"mean_delay_ms", Value(analytics.delay_stats.mean())}})};
  }

  // POST /apps/{app}/jobs
  if (parts.size() == 3 && parts[2] == "jobs" && request.method == "POST") {
    std::string type = request.body.get_string("type");
    auto it = job_types_.find(type);
    if (it == job_types_.end())
      return error_response(
          err(ErrorCode::kNotFound, "unknown job type '" + type + "'"));
    auto delay = static_cast<DurationMs>(request.body.get_int("delay_ms", 0));
    auto result =
        server_.submit_job(request.auth_token, app, type, it->second, delay);
    if (!result.ok()) return error_response(result.error());
    return RestResponse{202, Value(Object{{"job", Value(result.value())}})};
  }

  return not_found();
}

RestResponse GoFlowRestApi::handle_jobs(const RestRequest& request,
                                        const std::vector<std::string>& parts) {
  if (parts.size() == 2 && request.method == "GET") {
    auto result = server_.job_info(parts[1]);
    if (!result.ok()) return error_response(result.error());
    return RestResponse{200, result.value()};
  }
  return not_found();
}

}  // namespace mps::core
